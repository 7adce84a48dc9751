"""API-hygiene rules (``A4xx``, AST half): docstring and annotation
coverage for the gated public API.

``A401`` gates docstrings on the public surface of the configured
``docstring_packages`` (``src/repro/core``, ``src/repro/signal``, the
capture path's ``src/repro/hardware`` and ``src/repro/robustness``, and
the cores' ``src/repro/uarch``), with one report and one suppression
syntax alongside every other rule.
``A404`` adds the annotation-coverage companion for the model-building
core.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..config import path_matches
from ..core import FileContext, Rule


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(dotted name, node)`` for the module, every public
    top-level function/class, and every public method — the exact
    surface the historical docstring gate checked."""
    yield "<module>", tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)) and \
                        _is_public(child.name):
                    yield f"{node.name}.{child.name}", child


class DocstringCoverageRule(Rule):
    """A401: every public definition in a gated package has a docstring.

    ``__init__`` / ``__call__`` are exempt (their class docstring
    covers them) by the public-name policy: they don't start the name.
    """

    rule_id = "A401"
    family = "hygiene"
    title = "missing public docstring"

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.docstring_packages)

    def check_file(self, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        for name, node in public_definitions(ctx.tree):
            if not ast.get_docstring(node):
                yield getattr(node, "lineno", 1), \
                    f"public definition {name!r} has no docstring"


class AnnotationCoverageRule(Rule):
    """A404: the gated packages' public functions are fully annotated.

    Every parameter except ``self``/``cls`` needs an annotation, and so
    does the return (``__init__`` excepted — it always returns None).
    ``*args``/``**kwargs`` count as parameters.
    """

    rule_id = "A404"
    family = "hygiene"
    title = "untyped public function"

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.annotations_packages)

    @staticmethod
    def _missing(node: ast.AST) -> List[str]:
        args = node.args
        missing = [arg.arg for arg in
                   args.posonlyargs + args.args + args.kwonlyargs
                   if arg.annotation is None and
                   arg.arg not in ("self", "cls")]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None and node.name != "__init__":
            missing.append("return")
        return missing

    def check_file(self, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        for name, node in public_definitions(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            missing = self._missing(node)
            if missing:
                yield node.lineno, \
                    (f"public function {name!r} missing annotations: "
                     f"{', '.join(missing)}")
