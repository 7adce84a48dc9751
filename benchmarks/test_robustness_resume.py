"""Perf/robustness: supervised campaign survival, resume, and overhead.

The acceptance claims for the supervised campaign runtime
(docs/robustness.md):

1. a 256-item campaign with ~10 % injected faults — an even mix of
   worker crashes (``os._exit``) and hangs (sleep past the per-item
   deadline) — completes with **zero lost non-quarantined items**: every
   faulted item is retried to success;
2. an interrupted-at-50 %-then-resumed run produces **bit-identical**
   result arrays to an uninterrupted one;
3. the checkpoint journal costs **< 5 %** wall time on a fault-free
   campaign.

Emits ``benchmarks/results/BENCH_resume.json`` (schema
``repro-bench/1``).  ``REPRO_BENCH_QUICK=1`` shrinks the campaign to 64
items and writes ``BENCH_resume.quick.json`` instead.
"""

import os
import time

import numpy as np
from conftest import bench_quick, write_bench_report
from repro.observability import disable_metrics, enable_metrics
from repro.parallel import spawn_seed, supervised_map
from repro.robustness import CheckpointJournal, content_key

QUICK = bench_quick()
ITEMS = 64 if QUICK else 256
WORKERS = 8
ITEM_TIMEOUT = 1.0
MAX_RETRIES = 2
OVERHEAD_CEILING = 0.05

# fault plan: every 20th item (offset 3) crashes its worker on the
# first attempt, every 20th (offset 13) hangs past the deadline — a
# 10% crash+hang mix, deterministic by index
CRASH_STRIDE, CRASH_PHASE = 20, 3
HANG_STRIDE, HANG_PHASE = 20, 13

# the supervised pool's registry counters, reported zero-filled so the
# report's shape does not depend on which of them fired
SUPERVISION_COUNTERS = ("retries", "timeouts", "crashes", "failures",
                        "rebuilds", "quarantined", "resumed",
                        "checkpointed")


def _payload(index):
    """The per-item "capture": a deterministic seeded computation sized
    like a real campaign item (~20 ms — a reference capture costs tens
    of milliseconds), so the measured journaling overhead is
    representative rather than dominated by fsync on toy items."""
    rng = spawn_seed(7, index)
    signal = rng.normal(size=65536)
    for _ in range(16):
        signal = np.fft.irfft(np.fft.rfft(signal), len(signal))
    return signal[:128].copy()


def faulty_item(item):
    """Compute the payload, injecting one crash or hang per fault slot."""
    index, faults_dir = item
    if faults_dir:
        if index % CRASH_STRIDE == CRASH_PHASE:
            marker = os.path.join(faults_dir, f"crash_{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os._exit(1)
        if index % HANG_STRIDE == HANG_PHASE:
            marker = os.path.join(faults_dir, f"hang_{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                time.sleep(30)
    return _payload(index)


def _key_for(index, item):
    return content_key("resume-bench", item[0])


def _items(faults_dir=""):
    return [(index, faults_dir) for index in range(ITEMS)]


def _expected_faults():
    crashes = len([i for i in range(ITEMS)
                   if i % CRASH_STRIDE == CRASH_PHASE])
    hangs = len([i for i in range(ITEMS)
                 if i % HANG_STRIDE == HANG_PHASE])
    return crashes, hangs


def _truncate_journal(path, keep_records):
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.writelines(lines[:1 + keep_records])


class _TimedJournal(CheckpointJournal):
    """Journal that accounts the wall time of its own appends, so the
    overhead measurement is paired with the campaign it rode in and
    run-to-run CPU noise cancels out."""

    def __init__(self, *args, **kwargs):
        self.record_seconds = 0.0
        super().__init__(*args, **kwargs)

    def record(self, key, index, value):
        start = time.perf_counter()
        super().record(key, index, value)
        self.record_seconds += time.perf_counter() - start


def _journaled_run(journal_path):
    start = time.perf_counter()
    with _TimedJournal(journal_path, resume=False) as journal:
        results, ledger = supervised_map(faulty_item, _items(),
                                         workers=1, journal=journal,
                                         key_for=_key_for)
    assert ledger.complete
    total = time.perf_counter() - start
    return results, total, journal.record_seconds


def test_supervised_resume(record, tmp_path):
    registry = enable_metrics()
    registry.reset()
    try:
        # -- claim 1: survive a 10% crash+hang fault mix ----------
        faults_dir = str(tmp_path / "faults")
        os.makedirs(faults_dir)
        fault_start = time.perf_counter()
        faulted, ledger = supervised_map(
            faulty_item, _items(faults_dir), workers=WORKERS,
            timeout=ITEM_TIMEOUT, max_item_retries=MAX_RETRIES)
        fault_seconds = time.perf_counter() - fault_start
        crashes, hangs = _expected_faults()
        counts = ledger.counts()
        assert ledger.complete, \
            f"lost items: {ledger.quarantined}"
        assert counts["retried"] == crashes + hangs
        assert counts["ok"] == ITEMS - crashes - hangs
        assert ledger.pool_rebuilds >= hangs

        # -- claim 3: journaling overhead < 5% (fault-free) -------
        # timed inside one run (append seconds vs campaign
        # seconds), so multiplicative CPU noise cancels instead of
        # drowning the ~2% signal in run-to-run jitter
        reference, journal_seconds, record_seconds = _journaled_run(
            str(tmp_path / "overhead.jsonl"))
        overhead = record_seconds / (journal_seconds -
                                     record_seconds)

        # -- claim 2: interrupt at 50%, resume, compare bits ------
        resume_path = str(tmp_path / "resume.jsonl")
        with CheckpointJournal(resume_path, resume=False) as journal:
            supervised_map(faulty_item, _items(), workers=1,
                           journal=journal, key_for=_key_for)
        _truncate_journal(resume_path, keep_records=ITEMS // 2)
        with CheckpointJournal(resume_path) as journal:
            resumed, resume_ledger = supervised_map(
                faulty_item, _items(), workers=1,
                journal=journal, key_for=_key_for)
        identical = all(
            np.array_equal(a, b) and a.dtype == b.dtype
            for a, b in zip(reference, resumed))
        assert identical
        assert len(resume_ledger.resumed) == ITEMS // 2
        for a, b in zip(faulted, reference):
            assert np.array_equal(a, b)  # faults never change data
    finally:
        disable_metrics()
    document = write_bench_report(
        "resume",
        metadata={
            "benchmark": "supervised_resume",
            "items": ITEMS,
            "workers": WORKERS,
            "item_timeout": ITEM_TIMEOUT,
            "injected_crashes": crashes,
            "injected_hangs": hangs,
            "ledger_counts": counts,
            "pool_rebuilds": ledger.pool_rebuilds,
            "quarantined": ledger.quarantined,
            "fault_campaign_seconds": fault_seconds,
            "journal_campaign_seconds": journal_seconds,
            "journal_record_seconds": record_seconds,
            "checkpoint_overhead": overhead,
            "resumed_items": len(resume_ledger.resumed),
            "resume_bit_identical": identical,
            "supervision": {
                f"supervise.{name}":
                    registry.counters.get(f"supervise.{name}", 0)
                for name in SUPERVISION_COUNTERS},
        })

    lines = [f"{ITEMS} items, {document['injected_crashes']} crashes + "
             f"{document['injected_hangs']} hangs injected"
             + (" (quick mode)" if QUICK else ""),
             f"fault campaign: {document['fault_campaign_seconds']:6.2f} s"
             f"  ledger {document['ledger_counts']}"
             f"  rebuilds={document['pool_rebuilds']}",
             f"lost items: {len(document['quarantined'])}",
             f"checkpoint overhead: "
             f"{document['checkpoint_overhead']:+6.2%}  "
             f"(ceiling {OVERHEAD_CEILING:.0%})",
             f"resume at 50%: {document['resumed_items']} items "
             f"replayed, bit-identical="
             f"{document['resume_bit_identical']}"]
    record("robustness_resume", "\n".join(lines))
    assert document["quarantined"] == []
    assert document["resume_bit_identical"]
    assert document["checkpoint_overhead"] < OVERHEAD_CEILING
