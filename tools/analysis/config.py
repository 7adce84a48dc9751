"""Analyzer configuration, read from ``[tool.repro.analysis]``.

Every knob has a default tuned to this repository, so a bare
``python -m tools.analysis`` checks exactly what ``make lint`` gates.
Path-valued options are repo-root-relative prefixes; a file matches a
prefix when its relative path equals the prefix or lives under it.
Tests override individual fields to point rules at fixture trees.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field, fields, replace
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


@dataclass(frozen=True)
class AnalysisConfig:
    """All analyzer settings; field names mirror the pyproject keys."""

    #: directory trees scanned for ``.py`` files (the lint surface).
    paths: List[str] = field(default_factory=lambda: ["src", "tools"])
    #: committed baseline of accepted findings.
    baseline: str = "tools/analysis/baseline.json"
    #: modules making up the CLI layer; E303 restricts their raises.
    cli_modules: List[str] = field(default_factory=lambda: [
        "src/repro/cli.py", "src/repro/__main__.py"])
    #: the sanctioned process fan-out modules (D105 flags pools
    #: elsewhere): the supervised pool itself and the shared-memory
    #: result transport it rides on.
    pool_modules: List[str] = field(default_factory=lambda: [
        "src/repro/parallel.py", "src/repro/ipc.py"])
    #: packages where even monotonic clocks are banned (D102); the
    #: simulation core must be a pure function of its seeds.
    monotonic_strict: List[str] = field(default_factory=lambda: [
        "src/repro/core", "src/repro/uarch", "src/repro/signal"])
    #: modules that own timing primitives, exempt from D102 entirely.
    clock_owner_modules: List[str] = field(default_factory=lambda: [
        "src/repro/observability/tracer.py"])
    #: packages whose public API must be fully annotated (A404).
    annotations_packages: List[str] = field(default_factory=lambda: [
        "src/repro/core"])
    #: packages/modules whose public API must be fully documented (A401;
    #: populated from ``[tool.repro.docstrings]`` for one-gate parity).
    docstring_packages: List[str] = field(default_factory=lambda: [
        "src/repro/core", "src/repro/signal"])
    #: campaign-shaped modules where every supervised fan-out call must
    #: pass an explicit ``timeout=`` (E305) — an hours-long campaign
    #: silently inheriting "no deadline" is how hung workers sink runs.
    campaign_modules: List[str] = field(default_factory=lambda: [
        "src/repro/core/batch.py", "src/repro/core/training.py",
        "src/repro/leakage/tvla.py", "src/repro/leakage/savat.py"])
    #: process exit codes the repo documents (E304); kept in sync with
    #: the ``ReproError`` table in ``docs/robustness.md``.
    exit_codes: List[int] = field(default_factory=lambda: [
        0, 1, 2, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22])
    #: markdown surfaces checked by the doc rules (A402/A403).
    doc_files: List[str] = field(default_factory=lambda: [
        "README.md", "docs"])
    #: ``Class.method`` (or ``module.function`` for module-level
    #: functions) names on the per-cycle simulation hot path; P601
    #: flags any dict/list/set construction inside them — the columnar
    #: trace engine exists precisely because per-cycle object churn
    #: dominated simulate time.  The ``reconstruction.*`` entries are
    #: the signal engine's per-trace kernels.
    hot_loop_functions: List[str] = field(default_factory=lambda: [
        "ActivityTrace.begin_cycle", "ActivityTrace.end_cycle",
        "ActivityTrace.record",
        "HardwareLatches.write", "HardwareLatches.write_bubble",
        "OutOfOrderCore.step", "Pipeline.step",
        "reconstruction._banded_rhs",
        "reconstruction._overlap_add_synthesize",
        "reconstruction._spectral_synthesize"])
    #: per-cycle dataclass/object types whose construction P601 also
    #: flags inside hot-loop functions (matched by unqualified name).
    hot_loop_types: List[str] = field(default_factory=lambda: [
        "StageOccupancy"])
    #: sanctioned direct-convolution sites (same naming scheme as
    #: ``hot-loop-functions``); P602 flags every other ``np.convolve``
    #: call in ``src`` — Eq. 6 synthesis must go through the planned
    #: engine (``reconstruct``).  Empty by default: the direct oracle
    #: lives in ``tests/``, and the one production call carries an
    #: inline allow tag.
    convolve_oracle_functions: List[str] = field(default_factory=list)
    #: import roots mapping file paths to dotted module names for the
    #: ProjectIndex; tried in order (``src/repro/cli.py`` ->
    #: ``repro.cli``, ``tools/analysis/cli.py`` -> ``tools.analysis.cli``).
    source_roots: List[str] = field(default_factory=lambda: [
        "src", "."])
    #: seed-critical entry points for the D201 provenance pass: every
    #: unseeded-RNG site reachable from one of these (``Class.method``
    #: or bare function quals) is flagged — a trace must be a pure
    #: function of (program, config, seed).
    seed_entry_points: List[str] = field(default_factory=lambda: [
        "EMSim.simulate", "EMSim.simulate_many",
        "BatchSimulator.simulate_many", "supervised_campaign",
        "measurement_campaign", "Trainer.train", "Trainer.fit"])
    #: exception families the CLI layer's top-level handler converts to
    #: documented exit codes (E601 treats raises of these as covered).
    cli_handled_exceptions: List[str] = field(default_factory=lambda: [
        "ReproError"])
    #: exception names E601 never flags: argparse's own types, process
    #: control, and internal-bug signals where a traceback is wanted.
    cli_exempt_escapes: List[str] = field(default_factory=lambda: [
        "ArgumentError", "ArgumentTypeError", "AssertionError",
        "KeyboardInterrupt", "MemoryError", "NotImplementedError",
        "RecursionError", "StopIteration", "SystemExit"])
    #: bare function names that fan work out across processes; their
    #: first argument is the worker the X701 IPC pass audits.
    fanout_functions: List[str] = field(default_factory=lambda: [
        "parallel_map", "supervised_map"])
    #: project-defined class names allowed to cross the SupervisedPool
    #: worker boundary (X701); everything else must be codec arrays or
    #: plain JSON-able types.  Each entry is justified in
    #: ``docs/static-analysis.md``.
    ipc_allowlist: List[str] = field(default_factory=lambda: [
        "CampaignProbe", "SavatMeasurement", "Measurement",
        "SharedArrayRef"])
    #: name-based (dynamic) call edges are dropped when a bare name
    #: matches more than this many project functions — the graph stays
    #: an over-approximation without wiring the whole repo together.
    dynamic_call_fanout: int = 6
    #: where the incremental engine keeps per-module records (relative
    #: to the repo root; gitignored).
    cache_dir: str = ".repro-lint-cache"


def _pyproject_section(root: str, *keys: str) -> dict:
    """Return a nested table from ``pyproject.toml`` ({} when absent)."""
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as handle:
        document = tomllib.load(handle)
    for key in keys:
        document = document.get(key, {})
    return document if isinstance(document, dict) else {}


def load_config(root: str = REPO_ROOT) -> AnalysisConfig:
    """Build the effective config: defaults + pyproject overrides.

    ``[tool.repro.analysis]`` keys use dashes (``cli-modules``); they
    map onto the dataclass fields with underscores.  The docstring
    package list is inherited from ``[tool.repro.docstrings]`` so the
    migrated A401 pass gates exactly what ``check_docstrings`` gated.
    """
    config = AnalysisConfig()
    docstrings = _pyproject_section(root, "tool", "repro", "docstrings")
    if docstrings:
        packages = list(docstrings.get("packages", []))
        packages += list(docstrings.get("modules", []))
        if packages:
            config = replace(config, docstring_packages=packages)
    overrides = _pyproject_section(root, "tool", "repro", "analysis")
    known = {f.name for f in fields(AnalysisConfig)}
    updates = {}
    for key, value in overrides.items():
        name = key.replace("-", "_")
        if name not in known:
            raise ValueError(f"[tool.repro.analysis]: unknown key {key!r}")
        updates[name] = value
    return replace(config, **updates) if updates else config


def path_matches(relative: str, prefixes: List[str]) -> bool:
    """True when ``relative`` equals a prefix or lives under one.

    The empty-string prefix matches everything, which fixture tests use
    to aim package-scoped rules at temporary trees.
    """
    normalized = relative.replace(os.sep, "/")
    for prefix in prefixes:
        prefix = prefix.replace(os.sep, "/").rstrip("/")
        if not prefix or normalized == prefix or \
                normalized.startswith(prefix + "/"):
            return True
    return False
