"""Per-module summaries: the facts the whole-program layer needs from
one file.

A summary is a *pure function of one module's source* (plus its dotted
module name); all cross-module reasoning (call-graph edges, exception
escape, seed provenance) happens later, at
:mod:`tools.analysis.callgraph` build time, from the summaries of
*every* module.

One summary records, per function (methods keyed ``Class.method``,
nested defs keyed ``outer.inner``):

* **calls** — every call site with its best-effort target: a resolved
  dotted ref (``repro.parallel.parallel_map``), a ``self.`` method, or
  a bare dynamic name for anything the AST cannot pin down, plus the
  exception names caught by ``try`` blocks enclosing the site;
* **raises** — literal ``raise`` sites with the resolved class name and
  the locally-caught names (a bare ``raise`` inside a handler re-raises
  the handler's types);
* **rng** — unseeded-RNG call sites, using the same detection sets as
  the per-file ``D101`` pass;
* **returns** — return expressions that construct or call something
  (the IPC-hygiene pass chases these across the graph);
* **fanouts** — ``parallel_map`` / ``supervised_map`` call sites with
  the resolved worker argument.

Module-level facts: import bindings (``np`` -> ``numpy``), star
imports, class bases, and the emitted instrumentation names (so
``A502`` reads them from the index instead of re-parsing ``src``).
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import FileContext
from .rules.determinism import (GLOBAL_NP_RANDOM_FNS, GLOBAL_RANDOM_FNS,
                                SEEDED_CONSTRUCTORS)
from .rules.observability import extract_names

#: node types that open a new scope — the per-function walks stop here
#: so an inner def's calls are attributed to the inner function.
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statement_bodies(node: ast.stmt) -> Iterator[List[ast.stmt]]:
    """Every nested statement list of a compound statement.

    Covers ``if``/``try``/``with``/``for``/``while`` (sync and async),
    so definitions inside e.g. a ``with record_campaign(...)`` block
    are discovered like top-level ones.
    """
    for name in ("body", "orelse", "finalbody"):
        value = getattr(node, name, None)
        if isinstance(value, list):
            yield value
    for handler in getattr(node, "handlers", []):
        yield handler.body


def resolve_relative(module: str, is_package: bool, level: int,
                     target: Optional[str]) -> str:
    """Absolute module name for a ``from ... import`` statement."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[:len(parts) - (level - 1)]
    base = ".".join(parts)
    if not target:
        return base
    return f"{base}.{target}" if base else target


def _own_scope_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_TYPES):
            stack.extend(ast.iter_child_nodes(child))


class _ModuleScope:
    """Module-level name bindings derived from top-level imports."""

    def __init__(self, module: str, is_package: bool, tree: ast.Module):
        self.module = module
        self.bindings: Dict[str, str] = {}
        self.star_imports: List[str] = []
        self.functions: Dict[str, int] = {}
        self.classes: Dict[str, dict] = {}
        self._scan_imports(tree, is_package)
        self._scan_defs(tree.body, "")
        self._resolve_class_bases()

    def _scan_imports(self, tree: ast.Module, is_package: bool) -> None:
        for node in _own_scope_nodes(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.bindings[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = resolve_relative(self.module, is_package,
                                        node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        self.star_imports.append(base)
                        continue
                    self.bindings[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name

    def _scan_defs(self, body: List[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                self.functions[qual] = node.lineno
                self._scan_defs(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                self.classes[qual] = {
                    "line": node.lineno,
                    "bases": [self._base_ref(base)
                              for base in node.bases
                              if self._base_ref(base)],
                    "methods": sorted(
                        stmt.name for stmt in node.body
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))),
                }
                self._scan_defs(node.body, f"{qual}.")
            elif not isinstance(node, _SCOPE_TYPES):
                for body in _statement_bodies(node):
                    self._scan_defs(body, prefix)

    def _base_ref(self, base: ast.expr) -> Optional[str]:
        dotted = _dotted(base)
        if dotted is None:
            return None
        return self.qualify(dotted)

    def _resolve_class_bases(self) -> None:
        for info in self.classes.values():
            info["bases"] = [self.qualify(ref) for ref in info["bases"]]

    def qualify(self, dotted: str) -> str:
        """Expand the leading component through the import bindings."""
        head, _, rest = dotted.partition(".")
        if head in self.bindings:
            base = self.bindings[head]
        elif head in self.classes or head in self.functions:
            base = f"{self.module}.{head}"
        else:
            return dotted
        return f"{base}.{rest}" if rest else base


def _dotted(node: ast.expr) -> Optional[str]:
    """Plain dotted name of an expression, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + list(reversed(parts)))


def _local_names(function: ast.AST) -> Set[str]:
    """Names bound inside ``function``'s own scope (params + stores)."""
    names: Set[str] = set()
    arguments = function.args
    for arg in (arguments.posonlyargs + arguments.args +
                arguments.kwonlyargs):
        names.add(arg.arg)
    if arguments.vararg:
        names.add(arguments.vararg.arg)
    if arguments.kwarg:
        names.add(arguments.kwarg.arg)
    for node in _own_scope_nodes(function):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or
                              alias.name.split(".")[0])
        elif isinstance(node, _SCOPE_TYPES):
            names.add(node.name)
    return names


class _FunctionWalker:
    """Extracts one function's summary facts."""

    def __init__(self, scope: _ModuleScope, ctx: FileContext,
                 node: ast.AST, qual: str, cls: Optional[str]):
        self.scope = scope
        self.ctx = ctx
        self.node = node
        self.qual = qual
        self.cls = cls
        self.locals = _local_names(node)

    # -- target resolution ---------------------------------------------
    def target(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """``("ref", dotted)`` / ``("self", method)`` / ``("dyn", name)``.

        ``ref`` targets are absolute dotted names (project or external);
        ``self`` targets resolve against the enclosing class at graph
        time; ``dyn`` targets fall back to name-based matching.  Returns
        ``None`` for calls on computed expressions with no usable name.
        """
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.locals:
                return ("dyn", name)
            if name in self.scope.bindings:
                return ("ref", self.scope.bindings[name])
            if name in self.scope.functions or name in self.scope.classes:
                return ("ref", f"{self.scope.module}.{name}")
            if hasattr(builtins, name):
                return None
            return ("dyn", name)
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is None:
                return ("dyn", func.attr)
            head, _, rest = dotted.partition(".")
            if head == "self" and self.cls is not None and rest:
                if "." not in rest:
                    return ("self", rest)
                return ("dyn", func.attr)
            if head in self.locals:
                return ("dyn", func.attr)
            qualified = self.scope.qualify(dotted)
            if qualified != dotted or head in self.scope.bindings:
                return ("ref", qualified)
            return ("dyn", func.attr)
        return None

    def exception_name(self, expr: ast.expr) -> Optional[str]:
        """Bare class name for a ``raise``/``except`` expression."""
        node = expr.func if isinstance(expr, ast.Call) else expr
        if isinstance(node, ast.Name) and node.id[:1].isupper() and \
                node.id not in self.locals and hasattr(builtins, node.id):
            # builtin exception classes (ValueError, OSError, ...):
            # ``target`` deliberately drops builtins from the call
            # graph, but for raise/except matching the bare name is
            # exactly what the hierarchy wants.
            return node.id
        target = self.target(node)
        if target is None:
            return None
        kind, value = target
        if kind == "ref":
            return value.split(".")[-1]
        if kind == "dyn" and value[:1].isupper():
            # an unbound capitalized name is almost always a class from
            # a star import; keep the bare name for hierarchy matching.
            return value
        return None

    # -- caught-exception context --------------------------------------
    def caught_at(self, node: ast.AST) -> List[str]:
        """Handler type names of ``try`` blocks enclosing ``node``."""
        caught: List[str] = []
        child = node
        parent = self.ctx.parent(child)
        while parent is not None and parent is not self.node:
            if isinstance(parent, ast.Try) and \
                    any(stmt is child for stmt in parent.body):
                for handler in parent.handlers:
                    caught.extend(self._handler_names(handler))
            child, parent = parent, self.ctx.parent(parent)
        return sorted(set(caught))

    def _handler_names(self, handler: ast.ExceptHandler) -> List[str]:
        if handler.type is None:
            return ["BaseException"]
        types = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        names = []
        for expr in types:
            name = self.exception_name(expr)
            if name is not None:
                names.append(name)
        return names

    def _enclosing_handler(self,
                           node: ast.AST) -> Optional[ast.ExceptHandler]:
        child = node
        parent = self.ctx.parent(child)
        while parent is not None and parent is not self.node:
            if isinstance(parent, ast.ExceptHandler):
                return parent
            child, parent = parent, self.ctx.parent(parent)
        return None

    # -- per-node fact extraction ---------------------------------------
    def collect(self, config) -> dict:
        calls: List[list] = []
        raises: List[list] = []
        rng: List[list] = []
        returns: List[list] = []
        fanouts: List[list] = []
        for node in _own_scope_nodes(self.node):
            if isinstance(node, ast.Call):
                self._collect_call(node, config, calls, rng, fanouts)
            elif isinstance(node, ast.Raise):
                self._collect_raise(node, raises)
            elif isinstance(node, ast.Return) and node.value is not None:
                for kind, value in self._return_targets(node.value):
                    returns.append([node.lineno, kind, value])
            elif isinstance(node, _SCOPE_TYPES) and \
                    isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                # a nested def runs (at the latest) when the enclosing
                # function calls it — model containment as a call edge.
                calls.append([node.lineno, "ref",
                              f"{self.scope.module}.{self.qual}."
                              f"{node.name}", []])
        return {"line": self.node.lineno, "cls": self.cls,
                "calls": calls, "raises": raises, "rng": rng,
                "returns": returns, "fanouts": fanouts}

    def _collect_call(self, node: ast.Call, config, calls: List[list],
                      rng: List[list], fanouts: List[list]) -> None:
        target = self.target(node.func)
        if target is None:
            return
        kind, value = target
        caught = self.caught_at(node)
        calls.append([node.lineno, kind, value, caught])
        if kind == "ref":
            module, _, name = value.rpartition(".")
            if module == "random" and name in GLOBAL_RANDOM_FNS:
                rng.append([node.lineno, node.col_offset,
                            f"random.{name}"])
            elif module == "numpy.random" and \
                    name in GLOBAL_NP_RANDOM_FNS:
                rng.append([node.lineno, node.col_offset,
                            f"numpy.random.{name}"])
            elif value in SEEDED_CONSTRUCTORS and not node.args and \
                    not node.keywords:
                rng.append([node.lineno, node.col_offset, value])
        bare = value.split(".")[-1]
        if bare in config.fanout_functions and node.args:
            worker = self._worker_target(node.args[0])
            if worker is not None:
                fanouts.append([node.lineno, worker[0], worker[1]])

    def _worker_target(self,
                       expr: ast.expr) -> Optional[Tuple[str, str]]:
        if isinstance(expr, ast.Call):
            # functools.partial(worker, ...) — chase the bound callable
            inner = self.target(expr.func)
            if inner is not None and \
                    inner[1].split(".")[-1] == "partial" and expr.args:
                return self._worker_target(expr.args[0])
            return None
        return self.target(expr)

    def _collect_raise(self, node: ast.Raise,
                       raises: List[list]) -> None:
        handler = self._enclosing_handler(node)
        exc = node.exc
        rethrow = exc is None or (
            handler is not None and isinstance(exc, ast.Name) and
            handler.name == exc.id)
        if rethrow:
            if handler is None:
                return
            caught = self.caught_at(handler)
            for name in self._handler_names(handler):
                if name != "BaseException":
                    raises.append([node.lineno, name, caught])
            return
        name = self.exception_name(exc)
        if name is None:
            return
        raises.append([node.lineno, name, self.caught_at(node)])

    def _return_targets(self,
                        expr: ast.expr) -> Iterator[Tuple[str, str]]:
        if isinstance(expr, (ast.Tuple, ast.List)):
            for element in expr.elts:
                yield from self._return_targets(element)
            return
        if isinstance(expr, ast.Call):
            target = self.target(expr.func)
            if target is not None:
                yield target


def build_summary(module: str, is_package: bool,
                  ctx: FileContext) -> dict:
    """The full per-module summary document."""
    scope = _ModuleScope(module, is_package, ctx.tree)
    functions: Dict[str, dict] = {}
    stack: List[Tuple[List[ast.stmt], str, Optional[str]]] = [
        (ctx.tree.body, "", None)]
    while stack:
        body, prefix, cls = stack.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                walker = _FunctionWalker(scope, ctx, node, qual, cls)
                functions[qual] = walker.collect(ctx.config)
                stack.append((node.body, f"{qual}.", cls))
            elif isinstance(node, ast.ClassDef):
                stack.append((node.body, f"{prefix}{node.name}.",
                              f"{prefix}{node.name}"))
            else:
                for body in _statement_bodies(node):
                    stack.append((body, prefix, cls))
    return {
        "module": module,
        "is_package": is_package,
        "bindings": dict(sorted(scope.bindings.items())),
        "star_imports": list(scope.star_imports),
        "functions": {qual: functions[qual]
                      for qual in sorted(functions)},
        "classes": {name: scope.classes[name]
                    for name in sorted(scope.classes)},
        "metrics": extract_names(ctx.tree),
    }
