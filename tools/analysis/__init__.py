"""repro-lint: an AST-based invariant analyzer for the EMSim repo.

The reproduction's headline guarantee is bit-identical runs, built by
hand from spawn-seeded fork pools, a content-addressed trace cache and
typed ``ReproError`` exit codes.  This package checks the *code* for
regressions against those invariants at ``make check`` time instead of
waiting for a flaky benchmark:

* **determinism** (``D1xx``, ``D201``) — unseeded RNG state (also when
  reachable from a seed-critical entry point), wall-clock reads in the
  simulation core, unsorted directory walks, set iteration feeding
  ordered outputs, process pools outside :mod:`repro.parallel`;
* **numerical safety** (``N2xx``) — float ``==``/``!=``, division by
  unguarded aggregates, silent dtype downcasts;
* **error contracts** (``E3xx``, ``E601``) — bare/swallowing
  ``except``, undocumented exit codes, campaign fan-outs without a
  deadline, exceptions that escape a CLI entry point untyped;
* **API hygiene** (``A4xx``) — docstring coverage, annotation coverage,
  markdown link resolution, CLI reference completeness, stale allow
  tags;
* **observability** (``A5xx``) and **IPC hygiene** (``X701``).

Run ``python -m tools.analysis`` (or ``make lint``): one cold pass over
the whole lint surface with a text or JSON report.  Findings are fixed
or suppressed inline with ``# repro: allow[RULE-ID] reason``.  The full
rule reference lives in ``docs/static-analysis.md``.
"""

from .core import (Analyzer, FileContext, Finding, Project, ProjectRule,
                   Rule, check_source)
from .config import AnalysisConfig

__all__ = [
    "AnalysisConfig",
    "Analyzer",
    "FileContext",
    "Finding",
    "Project",
    "ProjectRule",
    "Rule",
    "check_source",
]
