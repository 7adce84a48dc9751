"""Perf: run-record observability overhead on a supervised campaign.

The acceptance claim for the observability layer (docs/observability.md):
recording a campaign — per-item spans and counters, their spool/merge
across worker processes, the campaign event stream, and the final
``manifest.json`` — costs **< 5 %** wall time on the 256-item reference
campaign at every worker count the campaigns use: ``workers=1`` (the
in-process supervised path, where per-item instrumentation is least
amortized) and ``workers=2`` (the forked pool, where worker spans and
counters cross the process boundary through the spool).  Each item
records one span and one counter, like a campaign probe.  At each
worker count the unrecorded and recorded arms alternate, and each arm
takes the min of its runs, so one scheduler hiccup cannot fake an
overhead regression.

Emits ``benchmarks/results/BENCH_observability.json`` (schema
``repro-bench/1``).  ``REPRO_BENCH_QUICK=1`` shrinks the campaign to 64
items and writes ``BENCH_observability.quick.json`` instead.
"""

import json
import os
import time

from conftest import bench_quick, write_bench_report
from repro.observability import (finish_run, get_metrics, get_tracer,
                                 render_report, start_run,
                                 validate_manifest)
from repro.parallel import spawn_seed, supervised_map

QUICK = bench_quick()
ITEMS = 64 if QUICK else 256
ROUNDS = 3
WORKER_COUNTS = (1, 2)
OVERHEAD_CEILING = 0.05


def _payload(index):
    """Deterministic seeded computation sized like a real campaign item
    (~20 ms), matching the resume bench's workload so the two overhead
    claims (checkpoint < 5 %, recording < 5 %) are measured against the
    same reference campaign."""
    import numpy as np

    with get_tracer().span("bench.item"):
        rng = spawn_seed(7, index)
        signal = rng.normal(size=65536)
        for _ in range(16):
            signal = np.fft.irfft(np.fft.rfft(signal), len(signal))
        get_metrics().increment("bench.items")
        return signal[:128].copy()


def _campaign(workers):
    start = time.perf_counter()
    results, ledger = supervised_map(_payload, list(range(ITEMS)),
                                     workers=workers)
    assert ledger.complete
    return time.perf_counter() - start


def _recorded_campaign(trace_dir, workers):
    start_run(trace_dir, manifest=True, command="bench-observability")
    try:
        seconds = _campaign(workers)
        spans = get_tracer().by_name()
    finally:
        manifest_path = finish_run()
    # every item's span came home, pooled or not
    assert spans["bench.item"]["calls"] == ITEMS
    get_tracer().reset()
    get_metrics().reset()
    return seconds, manifest_path


def _overhead_at(workers, trace_root):
    baseline, recorded = [], []
    for round_index in range(ROUNDS):
        baseline.append(_campaign(workers))
        seconds, manifest_path = _recorded_campaign(
            os.path.join(trace_root, f"w{workers}_round_{round_index}"),
            workers)
        recorded.append(seconds)
    return {"baseline_seconds": min(baseline),
            "recorded_seconds": min(recorded),
            "recording_overhead": min(recorded) / min(baseline) - 1.0,
            "manifest": manifest_path}


def test_observability_overhead(record, tmp_path):
    arms = {str(workers): _overhead_at(workers,
                                       str(tmp_path / "traces"))
            for workers in WORKER_COUNTS}

    # each recorded arm must have produced a schema-valid manifest
    # that renders; an "overhead" number for a recording that wrote
    # nothing would be meaningless
    for arm in arms.values():
        with open(arm["manifest"], encoding="utf-8") as handle:
            document = json.load(handle)
        validate_manifest(document)
        report_text = render_report(document)
        assert "# Run report: bench-observability" in report_text
        assert "`bench.item`" in report_text

    document = write_bench_report(
        "observability",
        metadata={
            "benchmark": "observability_overhead",
            "items": ITEMS,
            "rounds": ROUNDS,
            "workers": list(WORKER_COUNTS),
            "arms": arms,
            "manifest_valid": True,
        })

    lines = [f"{ITEMS}-item fault-free campaign, one span + one counter "
             f"per item, min of {ROUNDS} alternating runs per arm"
             + (" (quick mode)" if QUICK else "")]
    for workers, arm in document["arms"].items():
        lines += [f"workers={workers}: baseline (no recording) "
                  f"{arm['baseline_seconds']:6.2f} s, recorded "
                  f"(--trace-dir) {arm['recorded_seconds']:6.2f} s, "
                  f"overhead {arm['recording_overhead']:+6.2%}"]
    lines += [f"ceiling {OVERHEAD_CEILING:.0%} at every worker count",
              f"manifest schema-valid: {document['manifest_valid']}"]
    record("perf_observability", "\n".join(lines))
    assert document["manifest_valid"]
    for arm in document["arms"].values():
        assert arm["recording_overhead"] < OVERHEAD_CEILING
