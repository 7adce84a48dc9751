"""Manifest schema validation and Markdown run-report rendering.

Backs the ``repro report`` CLI subcommand: load a ``manifest.json``,
validate it against ``repro-manifest/1``, and render a human-readable
Markdown digest, optionally joined with a checkpoint-journal summary
(:func:`repro.robustness.checkpoint.journal_summary`).

Rendering is deterministic: sections and table rows are emitted in
sorted order with fixed number formats, so reports are golden-file
testable and diffable across runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..robustness import ConfigurationError
from .manifest import MANIFEST_SCHEMA

#: Top-level keys every ``repro-manifest/1`` document must carry.
REQUIRED_KEYS = ("schema", "version", "campaigns", "cache", "metrics",
                 "spans", "events")

#: Keys every campaign entry must carry.
CAMPAIGN_KEYS = ("name", "meta", "config_hash", "seconds")


def validate_manifest(document: Any) -> Dict[str, Any]:
    """Check ``document`` against ``repro-manifest/1``.

    Returns the document unchanged when valid; raises
    :class:`repro.robustness.ConfigurationError` naming every problem
    found (not just the first) otherwise.
    """
    if not isinstance(document, dict):
        raise ConfigurationError("run manifest must be a JSON object")
    problems: List[str] = []
    schema = document.get("schema")
    if schema != MANIFEST_SCHEMA:
        problems.append(f"schema must be {MANIFEST_SCHEMA!r}, "
                        f"got {schema!r}")
    for key in REQUIRED_KEYS:
        if key not in document:
            problems.append(f"missing required key {key!r}")
    campaigns = document.get("campaigns", [])
    if not isinstance(campaigns, list):
        problems.append("'campaigns' must be a list")
    else:
        for position, campaign in enumerate(campaigns):
            if not isinstance(campaign, dict):
                problems.append(f"campaigns[{position}] must be "
                                "an object")
                continue
            for key in CAMPAIGN_KEYS:
                if key not in campaign:
                    problems.append(f"campaigns[{position}] missing "
                                    f"{key!r}")
    for key in ("metrics", "cache", "spans"):
        if key in document and not isinstance(document[key], dict):
            problems.append(f"{key!r} must be an object")
    if problems:
        raise ConfigurationError("invalid run manifest: "
                                 + "; ".join(problems))
    return document


def _table(headers: Sequence[str],
           rows: Sequence[Sequence[Any]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row)
                     + " |")
    return lines


def instrumentation_tables(by_name: Dict[str, Dict[str, float]],
                           counters: Dict[str, int]) -> List[str]:
    """Markdown span table (calls, seconds) and counter table.

    ``by_name`` is a :meth:`~repro.observability.Tracer.by_name` digest
    and ``counters`` a registry's counter dict; an empty input omits its
    section.  Shared by :func:`render_report` and the CLI's
    ``--profile`` so both print the same tables.
    """
    lines: List[str] = []
    if by_name:
        lines += ["", "## Spans", ""]
        lines += _table(["span", "calls", "seconds"],
                        [[f"`{name}`", int(by_name[name]["calls"]),
                          f"{float(by_name[name]['seconds']):.3f}"]
                         for name in sorted(by_name)])
    if counters:
        lines += ["", "## Counters", ""]
        lines += _table(["counter", "value"],
                        [[f"`{name}`", counters[name]]
                         for name in sorted(counters)])
    return lines


def render_report(document: Dict[str, Any],
                  journal: Optional[Dict[str, Any]] = None) -> str:
    """Render a validated manifest (and optional journal summary from
    :func:`repro.robustness.checkpoint.journal_summary`) to Markdown."""
    lines: List[str] = []
    title = document.get("command") or "campaign"
    lines += [f"# Run report: {title}", ""]
    lines.append(f"- schema: `{document['schema']}`")
    lines.append(f"- repro version: `{document['version']}`")
    seeds = document.get("seeds") or []
    if seeds:
        lines.append("- seeds: "
                     + ", ".join(str(seed) for seed in seeds))
    workers = document.get("workers")
    if workers is not None:
        lines.append(f"- max workers: {workers}")
    lines.append(f"- events: `{document['events']}`")

    campaigns = document.get("campaigns") or []
    if campaigns:
        lines += ["", "## Campaigns", ""]
        rows = []
        for campaign in campaigns:
            ledger = campaign.get("ledger") or {}
            rows.append([
                campaign["name"],
                campaign.get("items", "-"),
                ledger.get("ok", "-"),
                ledger.get("retried", "-"),
                ledger.get("timeout", "-"),
                ledger.get("quarantined", "-"),
                campaign.get("resumed", "-"),
                campaign.get("pool_rebuilds", "-"),
                f"{campaign['seconds']:.2f}",
                f"`{campaign['config_hash'][:12]}`",
            ])
        lines += _table(["campaign", "items", "ok", "retried",
                         "timeout", "quarantined", "resumed",
                         "rebuilds", "seconds", "config"], rows)
        checkpoints = [(campaign["name"], campaign["checkpoint"])
                       for campaign in campaigns
                       if campaign.get("checkpoint")]
        if checkpoints:
            lines += ["", "### Checkpoints", ""]
            for name, path in checkpoints:
                lines.append(f"- {name}: `{path}`")

    cache = document.get("cache") or {}
    lines += ["", "## Trace cache", ""]
    lines += _table(["hits", "misses", "evictions", "disk_hits"],
                    [[cache.get(key, 0) for key in
                      ("hits", "misses", "evictions", "disk_hits")]])

    metrics = document.get("metrics") or {}
    spans = document.get("spans") or {}
    lines += instrumentation_tables(spans.get("by_name") or {},
                                    metrics.get("counters") or {})
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines += ["", "## Gauges", ""]
        lines += _table(["gauge", "value"],
                        [[f"`{name}`", gauges[name]]
                         for name in sorted(gauges)])
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines += ["", "## Histograms", ""]
        rows = []
        for name in sorted(histograms):
            histogram = histograms[name]
            count = int(histogram.get("count", 0))
            total = float(histogram.get("total", 0.0))
            mean = total / count if count else 0.0
            rows.append([f"`{name}`", count, f"{total:.3f}",
                         f"{mean:.4f}"])
        lines += _table(["histogram", "count", "total", "mean"], rows)

    if journal:
        lines += ["", "## Checkpoint journal", ""]
        lines.append(f"- path: `{journal['path']}`")
        lines.append(f"- schema: `{journal['schema']}`")
        lines.append(f"- records: {journal['records']}")
        meta = journal.get("meta") or {}
        if meta:
            lines.append("- meta: `"
                         + json.dumps(meta, sort_keys=True) + "`")
        if journal.get("torn_tail"):
            lines.append("- torn tail detected (partial final record "
                         "ignored)")
    return "\n".join(lines) + "\n"
