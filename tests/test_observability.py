"""Tests for the run-record observability layer (repro.observability).

Covers the span tracer (nesting, attributes, disabled no-op), the
deterministic metrics registry (delta/merge transport, fixed histogram
edges), run manifests (schema
``repro-manifest/1``, event stream, atomic finalize), the Markdown
report renderer against a golden file, the cross-process span/metric
merge through the supervised pool at workers=1 and workers=4, the CLI
``--trace-dir`` / ``report`` path, and the journal digest used by
``repro report --journal``.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core import configure_trace_cache, measurement_campaign
from repro.hardware import HardwareDevice
from repro.observability import (MANIFEST_SCHEMA, Histogram,
                                 MetricsRegistry, config_hash,
                                 current_manifest_path, disable_metrics,
                                 disable_tracing, enable_metrics,
                                 enable_tracing, finish_run, get_metrics,
                                 get_recorder, get_tracer,
                                 record_campaign, render_report,
                                 set_spool_root, start_run,
                                 validate_manifest)
from repro.parallel import spawn_seed, supervised_map
from repro.robustness import CheckpointError, ConfigurationError
from repro.robustness.checkpoint import JOURNAL_SCHEMA, journal_summary
from repro.workloads import RandomProgramBuilder

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(autouse=True)
def _pristine_observability():
    """Every test starts and ends with recording fully torn down."""
    yield
    finish_run()
    disable_tracing()
    disable_metrics()
    get_tracer().reset()
    get_metrics().reset()
    set_spool_root(None)


# ---------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------

def test_tracer_disabled_records_nothing():
    tracer = get_tracer()
    with tracer.span("should.not_record"):
        pass
    assert tracer.spans == []


def test_tracer_nesting_paths_and_attributes():
    tracer = enable_tracing()
    with tracer.span("outer.scope", campaign="demo"):
        with tracer.span("inner.scope", index=3):
            pass
    # spans append on exit: children complete before their parent
    assert [span.name for span in tracer.spans] == \
        ["inner.scope", "outer.scope"]
    inner, outer = tracer.spans
    assert inner.path == "outer.scope/inner.scope"
    assert outer.path == "outer.scope"
    assert inner.attributes == {"index": 3}
    assert outer.attributes == {"campaign": "demo"}
    assert inner.pid == os.getpid()
    assert inner.seconds >= 0.0


def test_tracer_by_name_aggregates_and_sorts():
    tracer = enable_tracing()
    for _ in range(3):
        with tracer.span("repeat.name"):
            pass
    with tracer.span("another.name"):
        pass
    summary = tracer.by_name()
    assert list(summary) == ["another.name", "repeat.name"]
    assert summary["repeat.name"]["calls"] == 3
    assert summary["another.name"]["calls"] == 1


def test_tracer_reset_drops_spans():
    tracer = enable_tracing()
    with tracer.span("gone.soon"):
        pass
    tracer.reset()
    assert tracer.spans == []
    assert tracer.by_name() == {}


# ---------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------

def test_metrics_disabled_is_noop():
    registry = MetricsRegistry()
    registry.increment("quiet.counter")
    registry.set_gauge("quiet.gauge", 1.0)
    registry.observe("quiet.histogram", 0.5)
    assert registry.to_dict() == \
        {"counters": {}, "gauges": {}, "histograms": {}}


def test_metrics_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.enabled = True
    registry.increment("demo.items")
    registry.increment("demo.items", 4)
    registry.set_gauge("demo.workers", 2)
    registry.set_gauge("demo.workers", 8)  # last write wins
    registry.observe("demo.seconds", 0.5, edges=(1.0, 2.0))
    registry.observe("demo.seconds", 3.0, edges=(1.0, 2.0))
    exported = registry.to_dict()
    assert exported["counters"] == {"demo.items": 5}
    assert exported["gauges"] == {"demo.workers": 8.0}
    histogram = exported["histograms"]["demo.seconds"]
    assert histogram["edges"] == [1.0, 2.0]
    assert histogram["counts"] == [1, 0, 1]  # 0.5 low, 3.0 overflow
    assert histogram["count"] == 2
    assert histogram["total"] == pytest.approx(3.5)


def test_histogram_edges_are_fixed():
    registry = MetricsRegistry()
    registry.enabled = True
    registry.observe("demo.seconds", 0.1, edges=(1.0, 2.0))
    with pytest.raises(ConfigurationError):
        registry.observe("demo.seconds", 0.1, edges=(5.0,))


def test_metrics_delta_and_merge_round_trip():
    source = MetricsRegistry()
    source.enabled = True
    source.increment("demo.before", 2)
    baseline = source.snapshot()
    source.increment("demo.before", 3)
    source.increment("demo.after")
    source.set_gauge("demo.gauge", 7.0)
    source.observe("demo.seconds", 0.3, edges=(1.0,))
    delta = source.delta(baseline)
    # only the changes travel
    assert delta["counters"] == {"demo.after": 1, "demo.before": 3}
    target = MetricsRegistry()
    target.merge(delta)
    assert target.counters == {"demo.after": 1, "demo.before": 3}
    assert target.gauges == {"demo.gauge": 7.0}
    assert target.histograms["demo.seconds"].count == 1


def test_metrics_delta_empty_when_quiet():
    registry = MetricsRegistry()
    registry.enabled = True
    registry.increment("demo.items")
    assert registry.delta(registry.snapshot()) == {}


def test_histogram_add_counts_folds_buckets():
    histogram = Histogram(edges=(1.0,))
    histogram.observe(0.5)
    histogram.add_counts([2, 1], 3, 4.5)
    assert histogram.counts == [3, 1]
    assert histogram.count == 4
    assert histogram.total == pytest.approx(5.0)


# ---------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------

def test_record_campaign_without_recorder_is_noop(tmp_path):
    assert get_recorder() is None
    assert current_manifest_path() is None
    with record_campaign("demo", {"seed": 1}) as record:
        record.ledger_like = None  # the null handle tolerates anything
        record.set("items", 4)
        record.checkpoint(str(tmp_path / "none.jsonl"))
    assert get_recorder() is None


def test_start_run_twice_raises(tmp_path):
    start_run(str(tmp_path / "run"))
    with pytest.raises(ConfigurationError):
        start_run(str(tmp_path / "other"))


def test_run_writes_manifest_and_events(tmp_path):
    trace_dir = tmp_path / "run"
    start_run(str(trace_dir), command="test-campaign")
    assert current_manifest_path() == str(trace_dir / "manifest.json")
    with record_campaign("demo", {"seed": 5, "workers": 2}) as record:
        record.set("items", 4)
    path = finish_run()
    assert path == str(trace_dir / "manifest.json")
    assert current_manifest_path() is None

    with open(path) as handle:
        document = json.load(handle)
    validate_manifest(document)
    assert document["schema"] == MANIFEST_SCHEMA
    assert document["command"] == "test-campaign"
    assert document["seeds"] == [5]
    assert document["workers"] == 2
    campaign = document["campaigns"][0]
    assert campaign["name"] == "demo"
    assert campaign["items"] == 4
    assert campaign["config_hash"] == \
        config_hash({"seed": 5, "workers": 2})

    events = [json.loads(line) for line in
              (trace_dir / "events.jsonl").read_text().splitlines()]
    assert [event["event"] for event in events] == \
        ["start", "campaign_start", "campaign_end", "finish"]
    assert [event["seq"] for event in events] == [0, 1, 2, 3]
    assert events[0]["schema"] == MANIFEST_SCHEMA
    assert all(event["elapsed"] >= 0.0 for event in events)
    # the spool directory is cleaned up after the run
    assert not (trace_dir / "spool").exists()


def test_no_manifest_keeps_events_only(tmp_path):
    trace_dir = tmp_path / "run"
    start_run(str(trace_dir), manifest=False)
    assert current_manifest_path() is None
    assert finish_run() is None
    assert not (trace_dir / "manifest.json").exists()
    assert (trace_dir / "events.jsonl").exists()


def test_config_hash_is_order_independent():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# ---------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------

def _synthetic_manifest():
    """A fixed, timing-free manifest document for renderer tests."""
    return {
        "schema": MANIFEST_SCHEMA,
        "version": "1.0",
        "command": "train",
        "seeds": [0, 7],
        "workers": 4,
        "campaigns": [
            {"name": "measurement", "meta": {"seed": 0, "workers": 4},
             "config_hash": "a" * 64, "seconds": 12.5, "items": 8,
             "ledger": {"ok": 7, "retried": 1, "timeout": 0,
                        "quarantined": 1},
             "pool_rebuilds": 1, "resumed": 2, "complete": False,
             "checkpoint": "ckpt/train_de0-cv.jsonl"},
            {"name": "tvla", "meta": {"seed": 7},
             "config_hash": "b" * 64, "seconds": 3.25},
        ],
        "cache": {"hits": 10, "misses": 4, "evictions": 1,
                  "disk_hits": 2},
        "metrics": {
            "counters": {"supervise.retries": 1,
                         "trace_cache.device.hits": 10},
            "gauges": {"campaign.workers": 4.0},
            "histograms": {"campaign.capture_seconds": {
                "edges": [0.1, 1.0], "counts": [3, 4, 1],
                "count": 8, "total": 4.2}},
        },
        "spans": {"count": 3, "total_seconds": 15.75,
                  "by_name": {
                      "batch.simulate_many": {"calls": 2,
                                              "seconds": 12.0},
                      "train.pipeline": {"calls": 1, "seconds": 3.75}}},
        "events": "events.jsonl",
    }


def test_validate_manifest_accepts_synthetic():
    document = _synthetic_manifest()
    assert validate_manifest(document) is document


def test_validate_manifest_rejects_non_object():
    with pytest.raises(ConfigurationError, match="JSON object"):
        validate_manifest([1, 2, 3])


def test_validate_manifest_rejects_wrong_schema():
    document = _synthetic_manifest()
    document["schema"] = "repro-manifest/99"
    with pytest.raises(ConfigurationError, match="schema must be"):
        validate_manifest(document)


def test_validate_manifest_collects_every_problem():
    document = _synthetic_manifest()
    del document["cache"]
    del document["spans"]
    with pytest.raises(ConfigurationError) as excinfo:
        validate_manifest(document)
    message = str(excinfo.value)
    assert "'cache'" in message and "'spans'" in message


def test_validate_manifest_rejects_bad_campaigns():
    document = _synthetic_manifest()
    document["campaigns"] = "not-a-list"
    with pytest.raises(ConfigurationError, match="must be a list"):
        validate_manifest(document)
    document["campaigns"] = [{"name": "x"}, 42]
    with pytest.raises(ConfigurationError) as excinfo:
        validate_manifest(document)
    message = str(excinfo.value)
    assert "campaigns[0] missing 'config_hash'" in message
    assert "campaigns[1] must be an object" in message


def test_validate_manifest_rejects_non_object_sections():
    document = _synthetic_manifest()
    document["metrics"] = []
    with pytest.raises(ConfigurationError, match="'metrics'"):
        validate_manifest(document)


# ---------------------------------------------------------------------
# report rendering (golden file)
# ---------------------------------------------------------------------

def _synthetic_journal():
    return {"path": "ckpt/train_de0-cv.jsonl", "schema": JOURNAL_SCHEMA,
            "meta": {"campaign": "measurement", "seed": 0},
            "records": 7, "malformed": 0, "torn_tail": True}


def test_report_matches_golden_file():
    rendered = render_report(_synthetic_manifest(),
                             journal=_synthetic_journal())
    with open(os.path.join(DATA_DIR, "report_golden.md")) as handle:
        assert rendered == handle.read()


def test_report_minimal_manifest():
    document = {"schema": MANIFEST_SCHEMA, "version": "1.0",
                "command": None, "seeds": [], "workers": None,
                "campaigns": [], "cache": {}, "metrics": {},
                "spans": {}, "events": "events.jsonl"}
    rendered = render_report(validate_manifest(document))
    assert rendered.startswith("# Run report: campaign\n")
    assert "## Trace cache" in rendered
    assert "## Counters" not in rendered  # empty sections are omitted


# ---------------------------------------------------------------------
# cross-process span/metric merge through the supervised pool
# ---------------------------------------------------------------------

def _traced_item(index):
    with get_tracer().span("test.item", index=index):
        get_metrics().increment("test.items_done")
    return index * 2


def _seeded_item(index):
    rng = np.random.default_rng(spawn_seed(3, index))
    return rng.normal(size=64)


@pytest.mark.parametrize("workers", [1, 4])
def test_cross_process_merge(tmp_path, workers):
    """Worker spans and counters survive the process boundary.

    ``timeout`` forces the pooled path even at workers=1, so both
    parametrizations exercise the spool/merge protocol rather than the
    in-process serial path.
    """
    start_run(str(tmp_path / "run"), command="merge-test")
    try:
        results, ledger = supervised_map(
            _traced_item, list(range(8)), workers=workers, timeout=120.0)
    finally:
        path = finish_run()
    assert results == [index * 2 for index in range(8)]
    assert ledger.complete
    with open(path) as handle:
        document = json.load(handle)
    validate_manifest(document)
    assert document["spans"]["by_name"]["test.item"]["calls"] == 8
    assert document["metrics"]["counters"]["test.items_done"] == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_instrumentation_independent_of_worker_count(workers):
    """In-memory spans and counters see every probe at any worker count.

    ``item_timeout`` forces the forked pool at workers=2 even on a
    single-CPU host, so worker recordings must come back through the
    spool to be counted.
    """
    extra = {"item_timeout": 600.0} if workers > 1 else {}
    builder = RandomProgramBuilder(seed=5)
    programs = [builder.program(24, name=f"prog_{index}")
                for index in range(4)]
    configure_trace_cache(clear=True)
    enable_tracing()
    enable_metrics().reset()
    measurement_campaign(HardwareDevice(seed=3), programs, repetitions=8,
                         workers=workers, seed=9, **extra)
    spans = get_tracer().by_name()
    assert spans["campaign.capture"]["calls"] == 4
    assert spans["campaign.deconvolve"]["calls"] == 4
    assert get_metrics().counters["trace_cache.device.misses"] == 4


def test_serial_path_records_in_process(tmp_path):
    start_run(str(tmp_path / "run"))
    try:
        supervised_map(_traced_item, list(range(4)), workers=1)
        spans = list(get_tracer().spans)
    finally:
        finish_run()
    assert len(spans) == 4
    assert all(span.pid == os.getpid() for span in spans)


def test_recording_does_not_change_results(tmp_path):
    """Bit-identity: the same campaign with and without recording."""
    plain, _ = supervised_map(_seeded_item, list(range(6)),
                              workers=2, timeout=120.0)
    start_run(str(tmp_path / "run"))
    try:
        recorded, _ = supervised_map(_seeded_item, list(range(6)),
                                     workers=2, timeout=120.0)
    finally:
        finish_run()
    for before, after in zip(plain, recorded):
        assert np.array_equal(before, after)


# ---------------------------------------------------------------------
# CLI: --trace-dir and `repro report`
# ---------------------------------------------------------------------

BALANCE_SOURCE = """
    li t0, 5
    li t1, 3
    beqz t1, skip
    mul t2, t0, t1
skip:
    ebreak
"""


def _run_traced_balance(tmp_path, *extra):
    source = tmp_path / "leaky.s"
    source.write_text(BALANCE_SOURCE)
    trace_dir = tmp_path / "traces"
    arguments = ["--trace-dir", str(trace_dir), *extra,
                 "balance", str(source),
                 "--out", str(tmp_path / "balanced.s")]
    assert main(arguments) == 0
    return trace_dir


def test_cli_trace_dir_writes_manifest(tmp_path, capsys):
    trace_dir = _run_traced_balance(tmp_path)
    output = capsys.readouterr().out
    manifest_path = trace_dir / "manifest.json"
    assert f"run manifest written to {manifest_path}" in output
    with open(manifest_path) as handle:
        document = json.load(handle)
    validate_manifest(document)
    assert document["command"] == "balance"
    assert (trace_dir / "events.jsonl").exists()


def test_cli_no_manifest_flag(tmp_path, capsys):
    trace_dir = _run_traced_balance(tmp_path, "--no-manifest")
    output = capsys.readouterr().out
    assert "run manifest written" not in output
    assert not (trace_dir / "manifest.json").exists()
    assert (trace_dir / "events.jsonl").exists()


def test_cli_report_renders_manifest(tmp_path, capsys):
    trace_dir = _run_traced_balance(tmp_path)
    capsys.readouterr()
    assert main(["report", str(trace_dir / "manifest.json")]) == 0
    output = capsys.readouterr().out
    assert output.startswith("# Run report: balance")
    assert "## Trace cache" in output


def test_cli_report_out_file_and_journal(tmp_path, capsys):
    trace_dir = _run_traced_balance(tmp_path)
    journal = tmp_path / "journal.jsonl"
    journal.write_text(
        json.dumps({"schema": JOURNAL_SCHEMA, "meta": {"seed": 0}})
        + "\n" + json.dumps({"key": "abc", "payload": "…"}) + "\n")
    report_path = tmp_path / "report.md"
    capsys.readouterr()
    assert main(["report", str(trace_dir / "manifest.json"),
                 "--journal", str(journal),
                 "--out", str(report_path)]) == 0
    assert f"report written to {report_path}" in capsys.readouterr().out
    text = report_path.read_text()
    assert "## Checkpoint journal" in text
    assert "- records: 1" in text


def test_cli_report_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{ not json")
    assert main(["report", str(bad)]) == 16
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_report_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main(["report", str(bad)]) == 16
    assert "invalid run manifest" in capsys.readouterr().err


def test_cli_report_rejects_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 16
    assert "cannot read run manifest" in capsys.readouterr().err


# ---------------------------------------------------------------------
# journal_summary
# ---------------------------------------------------------------------

def _write_journal(path, lines, torn_tail=""):
    path.write_text("\n".join(lines) + "\n" + torn_tail)


def test_journal_summary_counts_records(tmp_path):
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [
        json.dumps({"schema": JOURNAL_SCHEMA, "meta": {"seed": 4}}),
        json.dumps({"key": "k1", "payload": "…", "check": "…"}),
        json.dumps({"key": "k2", "payload": "…", "check": "…"}),
    ])
    summary = journal_summary(str(path))
    assert summary["records"] == 2
    assert summary["malformed"] == 0
    assert summary["meta"] == {"seed": 4}
    assert summary["torn_tail"] is False


def test_journal_summary_flags_torn_tail_and_malformed(tmp_path):
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [
        json.dumps({"schema": JOURNAL_SCHEMA, "meta": {}}),
        "{ corrupt line",
        json.dumps({"key": "k1"}),
    ], torn_tail='{"key": "k2", "payl')
    summary = journal_summary(str(path))
    assert summary["records"] == 1
    assert summary["malformed"] == 1
    assert summary["torn_tail"] is True


def test_journal_summary_rejects_missing_and_empty(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        journal_summary(str(tmp_path / "absent.jsonl"))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(CheckpointError, match="no header"):
        journal_summary(str(empty))


def test_journal_summary_rejects_wrong_schema(tmp_path):
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [json.dumps({"schema": "other/1"})])
    with pytest.raises(CheckpointError, match="unsupported journal"):
        journal_summary(str(path))
