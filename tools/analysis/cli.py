"""Command-line front end for ``python -m tools.analysis``.

Exit codes follow the documented ``ReproError`` table
(``docs/robustness.md``): ``0`` clean, ``17`` (``AnalysisError``) when
unsuppressed findings remain, ``16`` (``ConfigurationError``) for an
unknown rule id, ``2`` from argparse itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import REPO_ROOT, AnalysisConfig
from .core import Analyzer
from .report import render_json, render_rule_list, render_text
from .rules import all_rules

#: mirrors ``AnalysisError.exit_code`` / ``ConfigurationError.exit_code``
#: without importing numpy-heavy ``repro`` for the common clean path;
#: ``test_analysis.py`` pins these against the real classes.
EXIT_FINDINGS = 17
EXIT_CONFIG = 16


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="repro-lint: AST-based invariant analyzer "
                    "(determinism, numerical safety, error contracts, "
                    "API hygiene, whole-program dataflow)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to report on (default: "
                             "the configured lint surface)")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="report format (json is byte-stable "
                             "across runs)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", default=None, metavar="IDS",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def _pick_rules(select: Optional[str], ignore: Optional[str]):
    rules = all_rules()
    known = {rule.rule_id for rule in rules}
    for option, value in (("--select", select), ("--ignore", ignore)):
        if value:
            unknown = sorted(set(_split(value)) - known)
            if unknown:
                raise ValueError(f"{option}: unknown rule id(s) "
                                 f"{', '.join(unknown)}")
    if select:
        wanted = set(_split(select))
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(_split(ignore))
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    return rules


def _split(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the analyzer; returns a ``ReproError``-table exit code."""
    args = _build_parser().parse_args(argv)
    try:
        rules = _pick_rules(args.select, args.ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    if args.list_rules:
        print(render_rule_list(rules))
        return 0

    analyzer = Analyzer(rules, AnalysisConfig(), root=REPO_ROOT)
    result = analyzer.run(args.paths or None)
    render = render_json if args.format == "json" else render_text
    report = render(result)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    else:
        print(report, end="")
    return EXIT_FINDINGS if result.findings else 0
