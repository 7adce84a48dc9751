"""Analyzer core: finding model, per-file AST context, rule base classes,
and the engine that runs every pass in a single tree walk.

The design splits a *rule* (one invariant, one ``RULE-ID``) from the
*engine* (file discovery, parsing, dispatch, suppression, ordering):

* :class:`Rule` subclasses declare the AST node types they care about
  and yield ``(node, message)`` pairs from :meth:`Rule.check_node`;
  the engine visits each file's tree exactly once and dispatches every
  node to all interested rules, so adding a pass costs one class, not
  one traversal.
* :class:`ProjectRule` subclasses skip the AST and check repo-level
  artifacts (markdown links, the CLI reference) via
  :meth:`ProjectRule.check_project`.
* :class:`ProgramRule` subclasses see the *whole program*: the engine
  builds a :class:`~tools.analysis.project.ProjectIndex` (symbol
  tables, import graph, call-graph summaries) over the full lint
  surface and hands it to :meth:`ProgramRule.check_program` — this is
  how the interprocedural families (seed provenance ``D2xx``,
  exit-code contracts ``E6xx``, IPC hygiene ``X7xx``) run.
* :class:`FileContext` gives rules the shared per-file facts they need:
  resolved import aliases (``np`` -> ``numpy``), parent links,
  ``np.errstate`` spans, and inline suppression comments.

Every run is one cold pass: each file on the lint surface is read and
parsed exactly once, and that one tree feeds both the per-file rules
and the module summary the whole-program index is built from.

Output is deterministic by construction: files are discovered in sorted
order, findings are sorted by ``(path, line, col, rule, message)``, and
nothing records wall-clock time.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from .config import AnalysisConfig

SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z]\d+(?:\s*,\s*[A-Za-z]\d+)*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pinned to a ``file:line:col`` span."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Human-readable one-liner (the text report row)."""
        return f"{self.path}:{self.line}:{self.col}: " \
               f"[{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order via sort_keys)."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


class FileContext:
    """Shared per-file facts rules draw on while visiting one tree."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: AnalysisConfig):
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.imports: Dict[str, str] = {}
        self.errstate_spans: List[Tuple[int, int]] = []
        self.suppressions: Dict[int, set] = {}
        #: every allow tag: ``(tag line, rule ids, covered lines)`` —
        #: the stale-suppression pass (``A405``) audits these.
        self.suppression_tags: List[Tuple[int, Tuple[str, ...],
                                          Tuple[int, ...]]] = []
        self._index(tree)
        self._scan_suppressions()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or
                                 alias.name.split(".")[0]] = \
                        alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    not node.level:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, ast.With):
                for item in node.items:
                    call = item.context_expr
                    if isinstance(call, ast.Call) and \
                            self.qualname(call.func) == "numpy.errstate":
                        self.errstate_spans.append(
                            (node.lineno, node.end_lineno or node.lineno))

    def _scan_suppressions(self) -> None:
        for number, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if not match:
                continue
            ids = tuple(sorted({part.strip()
                                for part in match.group(1).split(",")}))
            covered = [number]
            if not line[:match.start()].strip():
                # standalone comment: also cover the next code line, so
                # a multi-line explanation can sit between tag and
                # statement (inline tags apply to their own line only)
                cursor = number
                while cursor < len(self.lines):
                    text = self.lines[cursor].strip()
                    cursor += 1
                    if text and not text.startswith("#"):
                        covered.append(cursor)
                        break
            self.suppression_tags.append((number, ids, tuple(covered)))
            for line_number in covered:
                self.suppressions.setdefault(line_number,
                                             set()).update(ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression with import aliases resolved.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        ``perf_counter`` resolves to ``time.perf_counter`` under
        ``from time import perf_counter``.  Returns ``None`` for
        expressions that are not plain dotted names (calls, subscripts).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id, node.id)
        return ".".join([base] + list(reversed(parts)))

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """Immediate parent node (``None`` for the module itself)."""
        return self.parents.get(node)

    def in_errstate(self, line: int) -> bool:
        """True when ``line`` sits inside a ``with np.errstate`` block."""
        return any(start <= line <= end
                   for start, end in self.errstate_spans)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True when an allow comment covers ``rule`` at ``line``.

        Inline tags cover their own line; standalone comment tags cover
        the next code line (with any further comment lines between).
        """
        return rule in self.suppressions.get(line, set())


@dataclass
class Project:
    """Repo-level view handed to :class:`ProjectRule` passes.

    ``index`` is the :class:`~tools.analysis.project.ProjectIndex` the
    engine built over the whole lint surface, so repo-level passes read
    per-module facts instead of re-walking source trees.  Passes that
    only read markdown (``A402``/``A403``) work without one.
    """

    root: str
    config: AnalysisConfig
    index: Optional[Any] = None


class Rule:
    """Base class for one AST-level invariant check.

    Subclasses set :attr:`rule_id` / :attr:`family` / :attr:`title`,
    declare :attr:`node_types`, and implement :meth:`check_node`.
    :meth:`applies_to` narrows a rule to a subset of files (the engine
    skips dispatch entirely for files a rule declines).
    """

    rule_id: str = ""
    family: str = ""
    title: str = ""
    #: AST node classes this rule wants to see; () = whole-file rule
    #: that only implements :meth:`check_file`.
    node_types: Tuple[type, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: yes)."""
        return True

    def check_node(self, node: ast.AST,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` for each violation at ``node``."""
        return iter(())

    def check_file(self, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        """Yield ``(line, message)`` pairs from whole-file analysis."""
        return iter(())


class ProjectRule(Rule):
    """Base class for repo-level (non-AST) passes."""

    def check_project(self,
                      project: Project) -> Iterator[Tuple[str, int, str]]:
        """Yield ``(relative path, line, message)`` per violation."""
        return iter(())


class ProgramRule(Rule):
    """Base class for whole-program (interprocedural) passes.

    The engine builds one :class:`~tools.analysis.project.ProjectIndex`
    over the *full* configured surface — even when the run itself is
    scoped to a subset of files — and calls :meth:`check_program` once;
    findings landing outside the scoped file set are dropped, so a
    scoped run never reports on files it was not asked about while the
    analysis itself still sees every caller and callee.
    """

    def check_program(self, index: Any) -> Iterator[Finding]:
        """Yield findings computed from the whole-program index."""
        return iter(())


class SyntaxErrorRule(Rule):
    """E000: a file on the lint surface must parse.

    The engine emits this one itself — an unparsable file yields a
    single deterministic finding at the syntax error's position instead
    of aborting the whole run, so one broken file cannot hide every
    other finding in the report.  The class exists so the id shows up
    in ``--list-rules`` and participates in ``--select`` filtering.
    """

    rule_id = "E000"
    family = "engine"
    title = "file on the lint surface fails to parse"


class UnusedSuppressionRule(Rule):
    """A405: every allow tag must actually suppress something.

    A ``# repro: allow[...]`` comment whose rule ids silence no finding
    on the lines it covers is stale — the violation was fixed, the rule
    changed, or the tag was misplaced — and stale tags are how real
    suppressions rot into unreviewed noise.  The engine computes this
    after all other passes (including whole-program ones) have
    attributed their suppressions, counting only rule ids that were
    active in the run; tags naming deselected rules are left alone.
    A tag naming an id that no registered rule has can never suppress
    anything (a typo, or a deleted rule), so it is always flagged.
    """

    rule_id = "A405"
    family = "hygiene"
    title = "stale allow[] tag that suppresses nothing"


@dataclass
class ScanResult:
    """Everything one analyzer run produced, pre-sorted."""

    findings: List[Finding]
    suppressed: List[Finding]
    checked_files: int


def _syntax_error_finding(path: str, error: SyntaxError) -> Finding:
    """The deterministic E000 finding for an unparsable file."""
    return Finding(path=path.replace(os.sep, "/"),
                   line=error.lineno or 1,
                   col=max(0, (error.offset or 1) - 1),
                   rule=SyntaxErrorRule.rule_id,
                   message=f"file does not parse: "
                           f"{error.msg or 'invalid syntax'}; every "
                           f"file on the lint surface must be valid "
                           f"Python")


class Analyzer:
    """Runs a rule set over the configured lint surface in one cold pass."""

    def __init__(self, rules: Sequence[Rule], config: AnalysisConfig,
                 root: str):
        self.rules = list(rules)
        self.config = config
        self.root = root

    # ------------------------------------------------------------------
    # file discovery
    # ------------------------------------------------------------------
    def python_files(self, paths: Optional[Sequence[str]] = None
                     ) -> List[str]:
        """Sorted repo-relative ``.py`` paths under the lint surface."""
        found = []
        for entry in sorted(paths if paths is not None
                            else self.config.paths):
            absolute = os.path.join(self.root, entry)
            if os.path.isfile(absolute):
                if absolute.endswith(".py"):
                    found.append(os.path.relpath(absolute, self.root))
                continue
            for directory, subdirs, files in sorted(os.walk(absolute)):
                subdirs.sort()
                subdirs[:] = [d for d in subdirs if d != "__pycache__"]
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.relpath(
                            os.path.join(directory, name), self.root))
        return sorted(dict.fromkeys(
            path.replace(os.sep, "/") for path in found))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, paths: Optional[Sequence[str]] = None) -> ScanResult:
        """Analyze the surface; returns sorted kept/suppressed findings.

        ``paths`` narrows what is *reported*; the whole-program index is
        always built over the full configured surface, so a scoped run
        still sees every caller and callee.
        """
        program_rules = sorted(
            (rule for rule in self.rules
             if isinstance(rule, ProgramRule)),
            key=lambda rule: rule.rule_id)
        syntax_active = any(isinstance(rule, SyntaxErrorRule)
                            for rule in self.rules)
        unused_active = any(isinstance(rule, UnusedSuppressionRule)
                            for rule in self.rules)

        reported = self.python_files(paths)
        index = self.build_index(
            sorted(set(reported) | set(self.python_files(None))))
        records = index.records

        kept: List[Finding] = []
        suppressed: List[Finding] = []
        reported_set = set(reported)
        for relative in reported:
            record = records[relative]
            kept.extend(record.findings)
            suppressed.extend(record.suppressed)
            if record.error is not None and syntax_active:
                kept.append(record.error)

        # whole-program passes: computed over the full index, reported
        # (and suppression-routed) only on the files in scope.
        program_suppressed: Dict[str, Set[Tuple[int, str]]] = {}
        for rule in program_rules:
            for finding in rule.check_program(index):
                if finding.path not in reported_set:
                    continue
                covered = records[finding.path].suppressions
                if finding.rule in covered.get(finding.line, ()):
                    suppressed.append(finding)
                    program_suppressed.setdefault(
                        finding.path, set()).add(
                        (finding.line, finding.rule))
                else:
                    kept.append(finding)

        if unused_active:
            active_ids = {rule.rule_id for rule in self.rules}
            known_ids = _registered_ids() | active_ids
            for relative in reported:
                record = records[relative]
                used = {(finding.line, finding.rule)
                        for finding in record.suppressed}
                used |= program_suppressed.get(relative, set())
                for finding in _stale_tags(relative, record.tags, used,
                                           active_ids, known_ids):
                    if UnusedSuppressionRule.rule_id in \
                            record.suppressions.get(finding.line, ()):
                        suppressed.append(finding)
                    else:
                        kept.append(finding)

        project = Project(root=self.root, config=self.config,
                          index=index)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                for path, line, message in rule.check_project(project):
                    kept.append(Finding(path=path.replace(os.sep, "/"),
                                        line=line, col=0,
                                        rule=rule.rule_id,
                                        message=message))
        return ScanResult(findings=sorted(kept),
                          suppressed=sorted(suppressed),
                          checked_files=len(reported))

    def build_index(self, files: Sequence[str]):
        """Parse and check each of ``files`` once; the whole-program index.

        Each file yields one :class:`~tools.analysis.project.ModuleRecord`
        (per-file findings, suppressions, allow tags, module summary).
        """
        from .project import ModuleRecord, ProjectIndex, module_name_for
        from .summaries import build_summary

        records: Dict[str, Any] = {}
        for relative in files:
            info = module_name_for(relative, self.config.source_roots)
            module, is_package = info if info is not None else (None,
                                                                False)
            with open(os.path.join(self.root, relative),
                      encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source, filename=relative)
            except SyntaxError as error:
                records[relative] = ModuleRecord(
                    path=relative, module=module, is_package=is_package,
                    error=_syntax_error_finding(relative, error))
                continue
            ctx = FileContext(relative, source, tree, self.config)
            kept, suppressed = _split_suppressed(self._check_tree(ctx),
                                                 ctx)
            summary = build_summary(module, is_package, ctx) \
                if module is not None else None
            records[relative] = ModuleRecord(
                path=ctx.path, module=module, is_package=is_package,
                findings=kept, suppressed=suppressed,
                tags=list(ctx.suppression_tags),
                suppressions=ctx.suppressions, summary=summary)
        return ProjectIndex(records, self.config, self.root)

    def _check_tree(self, ctx: FileContext) -> Iterator[Finding]:
        active = [rule for rule in self.rules
                  if not isinstance(rule, ProjectRule)
                  and not isinstance(rule, ProgramRule)
                  and rule.applies_to(ctx)]
        by_type: Dict[type, List[Rule]] = {}
        for rule in active:
            for node_type in rule.node_types:
                by_type.setdefault(node_type, []).append(rule)
        for node in ast.walk(ctx.tree):
            for rule in by_type.get(type(node), ()):
                for where, message in rule.check_node(node, ctx):
                    yield Finding(path=ctx.path,
                                  line=getattr(where, "lineno", 1),
                                  col=getattr(where, "col_offset", 0),
                                  rule=rule.rule_id, message=message)
        for rule in active:
            for line, message in rule.check_file(ctx):
                yield Finding(path=ctx.path, line=line, col=0,
                              rule=rule.rule_id, message=message)


def _split_suppressed(findings: Iterator[Finding], ctx: FileContext
                      ) -> Tuple[List[Finding], List[Finding]]:
    """Sorted ``(kept, suppressed)`` by the file's allow tags."""
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        (suppressed if ctx.is_suppressed(finding.line, finding.rule)
         else kept).append(finding)
    return sorted(kept), sorted(suppressed)


def _registered_ids() -> Set[str]:
    """Every rule id in the registry, selected for this run or not."""
    from .rules import all_rules
    return {rule.rule_id for rule in all_rules()}


def _stale_tags(path: str, tags, used: Set[Tuple[int, str]],
                active_ids: Set[str], known_ids: Set[str]
                ) -> Iterator[Finding]:
    """A405 findings: tags naming unknown ids, or suppressing nothing."""
    for tag_line, ids, covered in tags:
        unknown = [rule_id for rule_id in ids if rule_id not in known_ids]
        if unknown:
            yield Finding(
                path=path, line=tag_line, col=0,
                rule=UnusedSuppressionRule.rule_id,
                message=f"allow[{', '.join(unknown)}] names no "
                        f"registered rule; fix the id or remove the tag")
        stale = [rule_id for rule_id in ids
                 if rule_id != UnusedSuppressionRule.rule_id
                 and rule_id in active_ids
                 and not any((line, rule_id) in used
                             for line in covered)]
        if stale:
            yield Finding(
                path=path, line=tag_line, col=0,
                rule=UnusedSuppressionRule.rule_id,
                message=f"allow[{', '.join(stale)}] suppresses "
                        f"nothing on the line(s) it covers; remove "
                        f"the stale tag or move it to the "
                        f"offending line")


def check_source(source: str, rules: Sequence[Rule],
                 config: Optional[AnalysisConfig] = None,
                 path: str = "<fixture>.py") -> ScanResult:
    """Analyze one in-memory snippet (the fixture-test entry point).

    Runs the per-file passes plus the engine-computed ones (``E000``
    when a :class:`SyntaxErrorRule` is supplied, ``A405`` when an
    :class:`UnusedSuppressionRule` is); whole-program rules need real
    trees — use an :class:`Analyzer` over a fixture directory instead.
    """
    config = config or AnalysisConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        if any(isinstance(rule, SyntaxErrorRule) for rule in rules):
            return ScanResult(
                findings=[_syntax_error_finding(path, error)],
                suppressed=[], checked_files=1)
        raise
    ctx = FileContext(path, source, tree, config)
    analyzer = Analyzer(rules, config, root=".")
    kept, suppressed = _split_suppressed(analyzer._check_tree(ctx), ctx)
    if any(isinstance(rule, UnusedSuppressionRule) for rule in rules):
        active_ids = {rule.rule_id for rule in rules}
        used = {(finding.line, finding.rule) for finding in suppressed}
        stale = _split_suppressed(
            _stale_tags(ctx.path, ctx.suppression_tags, used, active_ids,
                        _registered_ids() | active_ids), ctx)
        kept += stale[0]
        suppressed += stale[1]
    return ScanResult(findings=sorted(kept), suppressed=sorted(suppressed),
                      checked_files=1)
