"""The ProjectIndex: the whole-program view built from module summaries.

Where :class:`~tools.analysis.core.FileContext` answers questions about
one file, the index answers the cross-module ones: *which module is
``repro.core.batch``*, *what does the ref ``repro.core.EMSim.simulate``
actually name once re-exports are chased*, and *which classes derive
from which*.  It is built from one :class:`ModuleRecord` per file, each
the product of that file alone.

Name resolution is deliberately conservative: a dotted ref resolves by
longest-module-prefix, then through the target module's symbol table,
its ``from x import y`` re-export bindings (``__init__.py`` chains),
and finally its ``from x import *`` star imports, with a visited set
guarding import cycles.  Anything unresolved stays unresolved — the
call graph falls back to name-based over-approximation rather than
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .config import AnalysisConfig, path_matches
from .core import Finding


def module_name_for(path: str,
                    source_roots: List[str]
                    ) -> Optional[Tuple[str, bool]]:
    """``(dotted module name, is_package)`` for a repo-relative path.

    Source roots are tried in order; ``"."`` maps a path to its dotted
    form verbatim (how ``tools/analysis/cli.py`` becomes
    ``tools.analysis.cli``), while ``"src"`` strips the prefix first
    (how ``src/repro/cli.py`` becomes ``repro.cli``).
    """
    normalized = path.replace("\\", "/")
    if not normalized.endswith(".py"):
        return None
    for root in source_roots:
        root = root.rstrip("/")
        if root in ("", "."):
            relative = normalized
        elif normalized.startswith(root + "/"):
            relative = normalized[len(root) + 1:]
        else:
            continue
        parts = relative[:-3].split("/")
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        if not parts or not all(part.isidentifier() for part in parts):
            return None
        return ".".join(parts), is_package
    return None


@dataclass
class ModuleRecord:
    """Everything one analyzer pass over a single file produced.

    Findings and suppressions from the per-file rules, the file's
    suppression tags (for the stale-tag pass) and the line -> rule ids
    they cover (for routing whole-program findings), the module summary
    (for the whole-program rules), and the ``E000`` finding when the
    file does not parse.
    """

    path: str
    module: Optional[str]
    is_package: bool
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    tags: List[Tuple[int, Tuple[str, ...], Tuple[int, ...]]] = \
        field(default_factory=list)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    summary: Optional[dict] = None
    error: Optional[Finding] = None


class ProjectIndex:
    """Symbol tables, class hierarchy, and ref resolution over all modules."""

    def __init__(self, records: Dict[str, ModuleRecord],
                 config: AnalysisConfig, root: str):
        self.config = config
        self.root = root
        self.records = records
        self.by_module: Dict[str, ModuleRecord] = {}
        for record in records.values():
            if record.module and record.summary is not None:
                self.by_module[record.module] = record
        self._bases: Optional[Dict[str, Set[str]]] = None

    # ------------------------------------------------------------------
    # lookup primitives
    # ------------------------------------------------------------------
    def summary(self, module: str) -> Optional[dict]:
        record = self.by_module.get(module)
        return record.summary if record else None

    def modules(self) -> List[str]:
        return sorted(self.by_module)

    def function(self, module: str, qual: str) -> Optional[dict]:
        summary = self.summary(module)
        if summary is None:
            return None
        return summary["functions"].get(qual)

    # ------------------------------------------------------------------
    # ref resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: str,
                _seen: Optional[FrozenSet[str]] = None
                ) -> Optional[Tuple[str, str, str]]:
        """Resolve a dotted ref to ``(kind, module, qual)``.

        ``kind`` is ``"function"``, ``"class"``, or ``"module"``;
        external refs (``numpy.random.normal``) resolve to ``None``.
        Re-export chains (``repro.core.EMSim`` ->
        ``repro.core.simulator.EMSim``) and star imports are chased
        with a visited set, so import cycles terminate.
        """
        seen = _seen or frozenset()
        if ref in seen:
            return None
        seen = seen | {ref}
        parts = ref.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.by_module:
                rest = parts[cut:]
                if not rest:
                    return ("module", module, "")
                return self._resolve_in(module, rest, seen)
        return None

    def _resolve_in(self, module: str, rest: List[str],
                    seen: FrozenSet[str]
                    ) -> Optional[Tuple[str, str, str]]:
        summary = self.summary(module)
        if summary is None:
            return None
        qual = ".".join(rest)
        if qual in summary["functions"]:
            return ("function", module, qual)
        if qual in summary["classes"]:
            return ("class", module, qual)
        head = rest[0]
        if head in summary["bindings"]:
            target = summary["bindings"][head]
            if rest[1:]:
                target = f"{target}.{'.'.join(rest[1:])}"
            return self.resolve(target, seen)
        for star in summary["star_imports"]:
            hit = self.resolve(f"{star}.{qual}", seen)
            if hit is not None:
                return hit
        return None

    # ------------------------------------------------------------------
    # class hierarchy (bare names)
    # ------------------------------------------------------------------
    def class_bases(self) -> Dict[str, Set[str]]:
        """Bare class name -> bare base names, merged across modules.

        Keyed by bare name because exception matching in ``except``
        clauses is textual at analysis time; a cross-module name
        collision merges conservatively (more ancestors, never fewer).
        """
        if self._bases is None:
            bases: Dict[str, Set[str]] = {}
            for module in self.modules():
                summary = self.summary(module)
                for qual, info in summary["classes"].items():
                    bare = qual.split(".")[-1]
                    bases.setdefault(bare, set()).update(
                        ref.split(".")[-1] for ref in info["bases"])
            self._bases = bases
        return self._bases

    # ------------------------------------------------------------------
    # derived facts for rules
    # ------------------------------------------------------------------
    def metric_names(self, prefix: str = "src/repro") -> Set[str]:
        """Union of emitted instrumentation names under ``prefix``."""
        names: Set[str] = set()
        for record in self.records.values():
            if record.summary is None:
                continue
            if path_matches(record.path, [prefix]):
                names.update(record.summary["metrics"])
        return names
