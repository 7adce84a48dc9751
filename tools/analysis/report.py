"""Report rendering: the text summary and the machine-readable JSON.

Both formats are deterministic — findings arrive pre-sorted from the
engine and the JSON is dumped with sorted keys and no timestamps — so
two consecutive runs over the same tree produce byte-identical output
(a property ``test_analysis.py`` pins).
"""

from __future__ import annotations

import json
from typing import Sequence

from .core import Rule, ScanResult

REPORT_SCHEMA = "repro-lint/1"


def render_text(result: ScanResult) -> str:
    """Human-readable report: one row per finding, then the tally."""
    lines = [finding.format() for finding in result.findings]
    lines.append(f"repro-lint: {result.checked_files} file(s), "
                 f"{len(result.findings)} finding(s), "
                 f"{len(result.suppressed)} suppressed")
    return "\n".join(lines) + "\n"


def render_json(result: ScanResult) -> str:
    """Machine-readable report (schema ``repro-lint/1``)."""
    document = {
        "schema": REPORT_SCHEMA,
        "checked_files": result.checked_files,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict()
                       for finding in result.suppressed],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_rule_list(rules: Sequence[Rule]) -> str:
    """The ``--list-rules`` table, grouped by family order of id."""
    lines = []
    for rule in rules:
        lines.append(f"{rule.rule_id}  [{rule.family}] {rule.title}")
    return "\n".join(lines)
