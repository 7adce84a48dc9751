"""Tests for the supervised campaign runtime (repro.parallel).

Worker functions live at module top level so they pickle into pool
workers; faulty behaviors (crash once, hang once, raise once) are
steered by marker files in a per-test directory, which works across
process boundaries and makes "fail only on the first attempt"
expressible without shared memory.
"""

import os
import time

import numpy as np
import pytest

from repro.parallel import (MAX_WORKERS, CampaignLedger, ItemOutcome,
                            OUTCOME_OK, OUTCOME_QUARANTINED,
                            OUTCOME_RETRIED, OUTCOME_TIMEOUT,
                            SupervisionPolicy, parallel_map,
                            resolve_workers, retry_backoff, spawn_seed,
                            supervised_map)
from repro.robustness import CampaignError, ConfigurationError

# generous deadline for tests that need pool-mode supervision (crash
# detection) but must never trip on a slow CI machine
SAFE_TIMEOUT = 60.0


def square(value):
    return value * value


def slow_square(value):
    time.sleep(0.05)
    return value * value


def marker_flaky(item):
    """Fail the first attempt of every third item, then succeed."""
    value, directory = item
    marker = os.path.join(directory, f"flaky_{value}")
    if value % 3 == 0 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"first attempt of {value} fails")
    return value * 10


def marker_crash_once(item):
    """SIGKILL-equivalent death on the first attempt of item 2."""
    value, directory = item
    marker = os.path.join(directory, f"crash_{value}")
    if value == 2 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value + 100


def always_crash(item):
    value, _ = item
    if value == 3:
        os._exit(1)
    return value


def always_raise(value):
    raise ValueError(f"poisoned item {value}")


def hang_item(item):
    value, _ = item
    if value == 1:
        time.sleep(120)
    return value


def hang_once(item):
    """Hang only on the first attempt of item 1."""
    value, directory = item
    marker = os.path.join(directory, f"hang_{value}")
    if value == 1 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(120)
    return value * 7


class TestResolveWorkers:
    def test_integers_and_strings(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4
        assert resolve_workers(0) == 1
        assert resolve_workers(-2) == 1
        assert resolve_workers(10_000) == MAX_WORKERS

    def test_auto_and_none(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(None) >= 1

    def test_non_numeric_string_raises_configuration_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_workers("fast")
        assert "'fast'" in str(excinfo.value)
        assert excinfo.value.exit_code == 16

    def test_other_junk_raises_configuration_error(self):
        for junk in ("", "3.5", [], object()):
            with pytest.raises(ConfigurationError):
                resolve_workers(junk)


class TestParallelMapCompatibility:
    def test_serial_matches_pool(self):
        items = list(range(20))
        assert parallel_map(square, items, workers=1) == \
            parallel_map(square, items, workers=4)

    def test_generator_input(self):
        """Generators are materialized once; serial and pool paths agree
        (the satellite regression: generators consumed twice)."""
        serial = parallel_map(square, (i for i in range(12)), workers=1)
        pooled = parallel_map(square, (i for i in range(12)), workers=4)
        assert serial == pooled == [i * i for i in range(12)]

    def test_empty_and_single(self):
        assert parallel_map(square, [], workers=4) == []
        assert parallel_map(square, [5], workers=4) == [25]

    def test_exceptions_propagate_by_default(self):
        with pytest.raises(ValueError, match="poisoned"):
            parallel_map(always_raise, [1, 2, 3], workers=1)
        with pytest.raises(ValueError, match="poisoned"):
            parallel_map(always_raise, [1, 2, 3], workers=4,
                         timeout=SAFE_TIMEOUT)

    def test_timeout_propagates_campaign_error(self):
        with pytest.raises(CampaignError):
            parallel_map(hang_item, [(i, "") for i in range(3)],
                         workers=2, timeout=0.5)


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_raise_then_succeed(self, tmp_path, workers):
        items = [(i, str(tmp_path / f"w{workers}")) for i in range(9)]
        os.makedirs(str(tmp_path / f"w{workers}"))
        results, ledger = supervised_map(
            marker_flaky, items, workers=workers,
            timeout=SAFE_TIMEOUT, max_item_retries=2)
        assert results == [i * 10 for i in range(9)]
        for outcome in ledger.outcomes:
            expected = OUTCOME_RETRIED if outcome.index % 3 == 0 \
                else OUTCOME_OK
            assert outcome.status == expected
        assert ledger.complete
        assert ledger.quarantined == []

    def test_ledger_deterministic_across_worker_counts(self, tmp_path):
        """The same faults yield the same ledger at 1 and 4 workers."""
        summaries = []
        for workers in (1, 4):
            directory = str(tmp_path / f"run{workers}")
            os.makedirs(directory)
            results, ledger = supervised_map(
                marker_flaky, [(i, directory) for i in range(9)],
                workers=workers, timeout=SAFE_TIMEOUT,
                max_item_retries=2)
            summaries.append(
                (results,
                 [(o.status, o.attempts, o.retries, round(o.waited, 12))
                  for o in ledger.outcomes]))
        assert summaries[0] == summaries[1]

    def test_exhausted_item_quarantined(self):
        results, ledger = supervised_map(
            always_raise, list(range(4)), workers=1, max_item_retries=1)
        assert results == [None] * 4
        assert all(o.status == OUTCOME_QUARANTINED
                   for o in ledger.outcomes)
        assert all(o.attempts == 2 for o in ledger.outcomes)
        assert all("poisoned" in o.errors[0] for o in ledger.outcomes)
        assert ledger.quarantined == [0, 1, 2, 3]
        assert not ledger.complete

    def test_backoff_deterministic(self):
        waits = [retry_backoff(7, 3, attempt) for attempt in range(4)]
        again = [retry_backoff(7, 3, attempt) for attempt in range(4)]
        assert waits == again
        assert all(wait > 0 for wait in waits)
        # a different item draws different jitter
        assert retry_backoff(7, 4, 0) != waits[0]
        # the policy records backoff without sleeping by default
        policy = SupervisionPolicy(seed=7)
        assert policy.backoff(3, 0) == waits[0]

    def test_backoff_sleep_injectable(self, tmp_path):
        slept = []
        directory = str(tmp_path)
        results, ledger = supervised_map(
            marker_flaky, [(3, directory)], workers=1,
            max_item_retries=1, sleep=slept.append)
        assert results == [30]
        assert len(slept) == 1
        assert slept[0] == ledger.outcomes[0].waited


class TestCrash:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_once_then_succeed(self, tmp_path, workers):
        directory = str(tmp_path / f"w{workers}")
        os.makedirs(directory)
        items = [(i, directory) for i in range(6)]
        results, ledger = supervised_map(
            marker_crash_once, items, workers=workers,
            timeout=SAFE_TIMEOUT, max_item_retries=2)
        assert results == [i + 100 for i in range(6)]
        assert ledger.outcomes[2].status == OUTCOME_RETRIED
        assert ledger.outcomes[2].crashes == 1
        assert all(ledger.outcomes[i].status == OUTCOME_OK
                   for i in range(6) if i != 2)

    def test_persistent_crash_quarantined(self):
        items = [(i, "") for i in range(6)]
        results, ledger = supervised_map(
            always_crash, items, workers=2,
            timeout=SAFE_TIMEOUT, max_item_retries=1)
        assert results[3] is None
        assert [r for i, r in enumerate(results) if i != 3] == \
            [0, 1, 2, 4, 5]
        assert ledger.outcomes[3].status == OUTCOME_QUARANTINED
        assert ledger.outcomes[3].crashes == 2
        assert ledger.quarantined == [3]


class TestHang:
    def test_hung_worker_times_out(self):
        items = [(i, "") for i in range(4)]
        results, ledger = supervised_map(
            hang_item, items, workers=2, timeout=1.0,
            max_item_retries=0)
        assert results == [0, None, 2, 3]
        assert ledger.outcomes[1].status == OUTCOME_TIMEOUT
        assert ledger.outcomes[1].timeouts == 1
        assert ledger.pool_rebuilds >= 1
        # innocents resubmitted after the rebuild are never charged
        assert all(ledger.outcomes[i].attempts == 1
                   for i in (0, 2, 3))

    def test_hang_once_then_succeed(self, tmp_path):
        directory = str(tmp_path)
        items = [(i, directory) for i in range(4)]
        results, ledger = supervised_map(
            hang_once, items, workers=2, timeout=2.0,
            max_item_retries=2)
        assert results == [0, 7, 14, 21]
        assert ledger.outcomes[1].status == OUTCOME_RETRIED
        assert ledger.outcomes[1].timeouts == 1

    def test_timeout_even_at_one_worker(self):
        """A timeout forces pool mode so hangs are recoverable at
        workers=1 too."""
        items = [(i, "") for i in range(3)]
        results, ledger = supervised_map(
            hang_item, items, workers=1, timeout=1.0,
            max_item_retries=0)
        assert results == [0, None, 2]
        assert ledger.outcomes[1].status == OUTCOME_TIMEOUT


class TestLedger:
    def test_counts_and_summary(self):
        ledger = CampaignLedger(outcomes=[
            ItemOutcome(index=0),
            ItemOutcome(index=1, status=OUTCOME_RETRIED, retries=1),
            ItemOutcome(index=2, status=OUTCOME_TIMEOUT, timeouts=3),
        ], pool_rebuilds=2)
        assert ledger.counts() == {OUTCOME_OK: 1, OUTCOME_RETRIED: 1,
                                   OUTCOME_TIMEOUT: 1,
                                   OUTCOME_QUARANTINED: 0}
        assert ledger.quarantined == [2]
        assert not ledger.complete
        summary = ledger.summary()
        assert "3 items" in summary and "pool_rebuilds=2" in summary

    def test_outcome_to_dict_round_trips_json(self):
        import json
        outcome = ItemOutcome(index=4, status=OUTCOME_RETRIED,
                              attempts=2, retries=1,
                              errors=["x"], waited=0.25)
        assert json.loads(json.dumps(outcome.to_dict()))["index"] == 4


class TestSpawnSeed:
    def test_streams_independent(self):
        base = spawn_seed(1, 2).random(4)
        assert not np.allclose(base, spawn_seed(1, 2, stream=1).random(4))
        assert np.allclose(base, spawn_seed(1, 2).random(4))
