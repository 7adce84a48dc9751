"""Analyzer configuration: one dataclass of defaults for this repository.

A bare ``python -m tools.analysis`` checks exactly what ``make lint``
gates; there is no config file.  Path-valued options are
repo-root-relative prefixes; a file matches a prefix when its relative
path equals the prefix or lives under it.  Tests override individual
fields with :func:`dataclasses.replace` to point rules at fixture trees.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


@dataclass(frozen=True)
class AnalysisConfig:
    """All analyzer settings."""

    #: directory trees scanned for ``.py`` files (the lint surface).
    paths: List[str] = field(default_factory=lambda: ["src", "tools"])
    #: modules making up the CLI layer; E601 audits what escapes their
    #: ``main``/``_cmd_*`` entry points.
    cli_modules: List[str] = field(default_factory=lambda: [
        "src/repro/cli.py", "src/repro/__main__.py"])
    #: the sanctioned process fan-out modules (D105 flags pools
    #: elsewhere): the supervised pool itself.
    pool_modules: List[str] = field(default_factory=lambda: [
        "src/repro/parallel.py"])
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
    #: packages/modules whose public API must be fully documented (A401).
    docstring_packages: List[str] = field(default_factory=lambda: [
        "src/repro/core", "src/repro/signal", "src/repro/hardware",
        "src/repro/robustness", "src/repro/uarch"])
    #: campaign-shaped modules where every supervised fan-out call must
    #: pass an explicit ``timeout=`` (E305) — an hours-long campaign
    #: silently inheriting "no deadline" is how hung workers sink runs.
    campaign_modules: List[str] = field(default_factory=lambda: [
        "src/repro/core/batch.py", "src/repro/core/training.py",
        "src/repro/leakage/tvla.py", "src/repro/leakage/savat.py",
        "src/repro/leakage/streaming.py"])
    #: process exit codes the repo documents (E304); kept in sync with
    #: the ``ReproError`` table in ``docs/robustness.md``.
    exit_codes: List[int] = field(default_factory=lambda: [
        0, 1, 2, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22])
    #: markdown surfaces checked by the doc rules (A402/A403).
    doc_files: List[str] = field(default_factory=lambda: [
        "README.md", "docs"])
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
        "EMSim.simulate", "EMSim.simulate_many", "supervised_campaign",
        "measurement_campaign", "Trainer.train"])
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
    #: worker boundary (X701); everything else must be NumPy arrays or
    #: plain JSON-able types.  Each entry is justified in
    #: ``docs/static-analysis.md``.
    ipc_allowlist: List[str] = field(default_factory=lambda: [
        "CampaignProbe", "SavatMeasurement", "Measurement"])
    #: name-based (dynamic) call edges are dropped when a bare name
    #: matches more than this many project functions — the graph stays
    #: an over-approximation without wiring the whole repo together.
    dynamic_call_fanout: int = 6


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
