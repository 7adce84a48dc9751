"""Observability rules (``A5xx``): run records stay present and honest.

Two invariants guard the observability layer added for run manifests:

* ``A501`` — the campaign entry points (the hours-long workloads in
  the configured ``campaign-modules``) must participate in run
  recording: a public module-level function that fans out through the
  supervised pool has to create a campaign record (or visibly accept
  one), otherwise a run manifest silently loses that campaign.
* ``A502`` — the instrumentation-name reference table in
  ``docs/observability.md`` must list exactly the span/counter/gauge/
  histogram names the source emits, so the docs cannot rot as
  instrumentation is added or renamed.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Set, Tuple

from ..config import path_matches
from ..core import FileContext, Project, ProjectRule, Rule


class CampaignManifestRule(Rule):
    """A501: campaign entry points must create or accept a run record.

    In the ``campaign-modules``, every *public, module-level* function
    whose body (including nested helpers) reaches ``supervised_map`` /
    ``parallel_map`` must either reference the manifest layer
    (``record_campaign``, ``get_recorder``, ``RunRecorder``,
    ``start_run``) or take an explicit ``recorder`` / ``manifest`` /
    ``recording`` parameter through which a caller passes one.
    Private helpers and methods are exempt — the contract sits on the
    entry point, not on every rung below it.
    """

    rule_id = "A501"
    family = "observability"
    title = "campaign entry point without a run record"
    node_types = (ast.FunctionDef,)

    FANOUT_FNS = frozenset({"parallel_map", "supervised_map"})
    RECORD_NAMES = frozenset({"record_campaign", "get_recorder",
                              "RunRecorder", "start_run"})
    RECORD_PARAMS = frozenset({"recorder", "manifest", "recording"})

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.campaign_modules)

    def _fans_out(self, node: ast.FunctionDef, ctx: FileContext) -> bool:
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            qual = ctx.qualname(inner.func)
            if qual is not None and \
                    qual.rpartition(".")[2] in self.FANOUT_FNS:
                return True
        return False

    def _records(self, node: ast.FunctionDef) -> bool:
        arguments = node.args
        parameters = (arguments.posonlyargs + arguments.args +
                      arguments.kwonlyargs)
        if any(argument.arg in self.RECORD_PARAMS
               for argument in parameters):
            return True
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and \
                    inner.id in self.RECORD_NAMES:
                return True
            if isinstance(inner, ast.Attribute) and \
                    inner.attr in self.RECORD_NAMES:
                return True
        return False

    def check_node(self, node: ast.FunctionDef,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if node.name.startswith("_"):
            return
        if not isinstance(ctx.parent(node), ast.Module):
            return
        if not self._fans_out(node, ctx):
            return
        if self._records(node):
            return
        yield node, (f"campaign entry point {node.name!r} fans out "
                     f"through the supervised pool without creating a "
                     f"run record; wrap the campaign in "
                     f"record_campaign(...) (or accept a recorder/"
                     f"manifest/recording parameter) so --trace-dir "
                     f"manifests do not silently lose it")


#: instrumentation-emitting methods whose literal first argument is a
#: span/counter/gauge/histogram name.
_EMITTERS = frozenset({"increment", "set_gauge", "observe", "span"})

#: shape of a real instrumentation name — lowercase segments joined by
#: dots, with ``<placeholder>`` segments for f-string parameters.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.(<[a-z_]+>|[a-z0-9_]+))*$")


def _is_name(token: str) -> bool:
    """Whether ``token`` looks like an instrumentation name.

    Beyond the shape regex, a real name always carries a dot (a
    namespace) or an underscore (a multi-word counter); this is what
    keeps single-word literals passed to unrelated same-named methods
    out of the extracted set.
    """
    return bool(_NAME_RE.match(token)) and ("." in token or
                                            "_" in token)


_BEGIN_MARK = "<!-- name-reference:begin -->"
_END_MARK = "<!-- name-reference:end -->"
_TOKEN_RE = re.compile(r"`([^`]+)`")


def _literal_name(argument: ast.expr) -> "str | None":
    """The instrumentation name in a literal or f-string first arg.

    F-string interpolations normalize to ``<expression-name>`` so
    ``f"trace_cache.{category}.hits"`` extracts as
    ``trace_cache.<category>.hits`` — one documented row per family.
    """
    if isinstance(argument, ast.Constant) and \
            isinstance(argument.value, str):
        return argument.value
    if isinstance(argument, ast.JoinedStr):
        parts: List[str] = []
        for value in argument.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                inner = value.value
                if isinstance(inner, ast.Name):
                    parts.append(f"<{inner.id}>")
                elif isinstance(inner, ast.Attribute):
                    parts.append(f"<{inner.attr}>")
                else:
                    parts.append("<expr>")
        return "".join(parts)
    return None


def extract_names(tree: ast.AST) -> Set[str]:
    """Every instrumentation name emitted by literal calls in ``tree``.

    Looks for method calls named in ``_EMITTERS`` whose first argument
    is a string literal (or f-string, normalized); anything not shaped
    like a dotted instrumentation name is discarded.  The engine stores
    each module's names in its summary, and ``A502`` reads their union
    from the index.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if not isinstance(node.func, ast.Attribute) or \
                node.func.attr not in _EMITTERS:
            continue
        name = _literal_name(node.args[0])
        if name is not None and _is_name(name):
            names.add(name)
    return names


class MetricReferenceRule(ProjectRule):
    """A502: the docs name-reference table matches the emitted names.

    ``docs/observability.md`` carries a table delimited by
    ``name-reference:begin`` / ``name-reference:end`` HTML comments;
    every backticked token inside must be an instrumentation name the
    source actually emits, and every emitted name must appear.  Run
    ``python -m tools.analysis --select A502`` after adding a counter
    or span to see exactly which rows to add.
    """

    rule_id = "A502"
    family = "observability"
    title = "instrumentation name reference stale"

    REFERENCE = os.path.join("docs", "observability.md")

    def check_project(self,
                      project: Project) -> Iterator[Tuple[str, int, str]]:
        reference_path = os.path.join(project.root, self.REFERENCE)
        emitted = project.index.metric_names("src/repro")
        if not os.path.exists(reference_path):
            if emitted:
                yield self.REFERENCE, 1, \
                    "missing docs/observability.md with the " \
                    "instrumentation name-reference table"
            return
        with open(reference_path) as handle:
            lines = handle.read().splitlines()
        begin = end = None
        for number, line in enumerate(lines, start=1):
            if _BEGIN_MARK in line and begin is None:
                begin = number
            elif _END_MARK in line and begin is not None:
                end = number
                break
        if begin is None or end is None:
            yield self.REFERENCE, 1, \
                f"name-reference markers ({_BEGIN_MARK} / {_END_MARK}) " \
                f"not found; the instrumentation table cannot be checked"
            return
        documented: Set[str] = set()
        for line in lines[begin:end - 1]:
            for token in _TOKEN_RE.findall(line):
                if _is_name(token):
                    documented.add(token)
        for name in sorted(emitted - documented):
            yield self.REFERENCE, begin, \
                f"emitted instrumentation name {name!r} is missing " \
                f"from the name-reference table"
        for name in sorted(documented - emitted):
            yield self.REFERENCE, begin, \
                f"documented instrumentation name {name!r} is no " \
                f"longer emitted anywhere under src/repro"
