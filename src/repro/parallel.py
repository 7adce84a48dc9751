"""Supervised, deterministic worker-pool fan-out for campaign workloads.

Model building, TVLA, and SAVAT are campaign-shaped: thousands of
independent (program -> capture -> amplitudes) items.  This module owns
the one sanctioned way to fan those items out over processes, and — new
with the supervised runtime — the machinery that keeps an hours-long
campaign alive when individual items misbehave:

* **ordered** — results always come back in input order, regardless of
  worker scheduling;
* **deterministic** — callers seed *per item* (see :func:`spawn_seed`),
  never from a shared stream, so the result of item ``i`` is independent
  of worker count and scheduling.  The supervision ledger can differ:
  a deadline rebuilds the whole pool and resubmits every other
  in-flight item uncharged, including one that is itself hung, so when
  hangs overlap a larger pool charges fewer timeouts, retries and
  rebuilds than ``workers=1`` does;
* **supervised** — :class:`SupervisedPool` submits items individually
  (``apply_async`` plus a deadline ledger) so it can enforce a per-item
  wall-clock timeout, detect crashed workers (dead pool /
  ``BrokenPipeError``) and rebuild the pool, retry failed items, and
  quarantine items that exhaust their retry budget instead of aborting
  the campaign — returning a typed per-item :class:`ItemOutcome` ledger
  (``ok | retried | timeout | quarantined``) alongside the results;
* **resumable** — pass a
  :class:`~repro.robustness.checkpoint.CheckpointJournal` plus a
  ``key_for`` callback and every completed item is journaled; a resumed
  run skips journaled items bit-identically;
* **degradable** — without a timeout, ``workers=1`` (the default
  everywhere) never touches ``multiprocessing``: the same supervision
  (retries, quarantine, journal) runs as an in-process loop, which is
  also the fallback when a pool cannot be created (restricted
  sandboxes).

A worker carries its own state: callers bind devices, simulators or
trace sources into the callable (``functools.partial(worker, device,
...)``), and every pool process receives that callable once, when it
starts — by memory under the fork start method, so closures and
unpicklable sources work; under ``spawn`` it must pickle.  Items and
results cross the process boundary through the pool's own pickle pipe.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

import numpy as np

from .observability.metrics import get_metrics
from .observability.tracer import (create_spool, flush_worker_records,
                                   merge_spool, monotonic,
                                   reset_flush_baseline)
from .robustness.errors import CampaignError, ConfigurationError

__all__ = ["resolve_workers", "parallel_map", "spawn_seed",
           "supervised_map", "SupervisedPool",
           "ItemOutcome", "CampaignLedger",
           "OUTCOME_OK", "OUTCOME_RETRIED", "OUTCOME_TIMEOUT",
           "OUTCOME_QUARANTINED"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

MAX_WORKERS = 64
"""Upper clamp on worker processes (beyond this, fork cost dominates)."""

OUTCOME_OK = "ok"
"""Ledger status: the item succeeded on its first charged attempt."""

OUTCOME_RETRIED = "retried"
"""Ledger status: the item succeeded after at least one retry."""

OUTCOME_TIMEOUT = "timeout"
"""Ledger status: quarantined, and the final failure was a deadline."""

OUTCOME_QUARANTINED = "quarantined"
"""Ledger status: quarantined after exhausting ``max_item_retries``."""

POLL_INTERVAL = 0.01
"""Seconds the pool loop sleeps after a pass that reaped nothing."""


def resolve_workers(workers: object) -> int:
    """Normalize a worker-count request to an integer >= 1.

    Accepts an int, a numeric string, or ``"auto"`` (one worker per
    available CPU).  Values below 1 are clamped to 1; values above
    :data:`MAX_WORKERS` are clamped down.  Anything else — a
    non-numeric string like ``--workers=fast`` — raises
    :class:`~repro.robustness.errors.ConfigurationError` naming the
    offending value (exit code 16 from the CLI).
    """
    if workers in ("auto", None):
        count = os.cpu_count() or 1
    else:
        try:
            count = int(workers)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"invalid worker count {workers!r}: expected a positive "
                f"integer or 'auto'")
    return max(1, min(MAX_WORKERS, count))


def spawn_seed(base_seed: int, index: int,
               stream: int = 0) -> np.random.Generator:
    """Per-item RNG keyed on ``(base_seed, stream, index)``.

    The standard recipe for deterministic parallelism here: every
    campaign item derives its own generator from the campaign seed and
    its position, so captures are reproducible and independent of how
    items land on workers.  ``stream`` separates independent consumers
    of the same campaign item (e.g. the device's scope RNG at stream 0
    and its fault injector at stream 1) without any risk of collision.
    """
    return np.random.default_rng([int(base_seed), int(stream), int(index)])


@dataclass
class ItemOutcome:
    """Per-item supervision record (one ledger row).

    ``status`` is one of :data:`OUTCOME_OK`, :data:`OUTCOME_RETRIED`,
    :data:`OUTCOME_TIMEOUT`, :data:`OUTCOME_QUARANTINED`.  ``attempts``
    counts *charged* attempts only — an item resubmitted because a
    neighbour's deadline rebuilt the pool under it keeps its count.
    That holds even when the item was itself hung at the time, so with
    overlapping hangs the row depends on the worker count.  ``resumed``
    marks items served from a checkpoint journal without running at
    all.
    """

    index: int
    status: str = OUTCOME_OK
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: List[str] = field(default_factory=list)
    resumed: bool = False

    def to_dict(self) -> dict:
        """JSON-ready row (benchmark reports embed these)."""
        return {"index": self.index, "status": self.status,
                "attempts": self.attempts, "retries": self.retries,
                "timeouts": self.timeouts, "crashes": self.crashes,
                "errors": list(self.errors), "resumed": self.resumed}


@dataclass
class CampaignLedger:
    """Typed outcome ledger for one supervised fan-out.

    Indexable alongside the results list: ``outcomes[i]`` describes how
    ``results[i]`` was produced (or why it is ``None``).
    """

    outcomes: List[ItemOutcome] = field(default_factory=list)
    pool_rebuilds: int = 0

    def counts(self) -> Dict[str, int]:
        """Items per final status (zero-filled, fixed key order)."""
        table = {OUTCOME_OK: 0, OUTCOME_RETRIED: 0,
                 OUTCOME_TIMEOUT: 0, OUTCOME_QUARANTINED: 0}
        for outcome in self.outcomes:
            table[outcome.status] += 1
        return table

    @property
    def quarantined(self) -> List[int]:
        """Indices whose result slot is ``None`` (lost items)."""
        return [outcome.index for outcome in self.outcomes
                if outcome.status in (OUTCOME_TIMEOUT,
                                      OUTCOME_QUARANTINED)]

    @property
    def resumed(self) -> List[int]:
        """Indices served from the checkpoint journal."""
        return [outcome.index for outcome in self.outcomes
                if outcome.resumed]

    @property
    def complete(self) -> bool:
        """True when every item produced a result."""
        return not self.quarantined

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        counts = self.counts()
        parts = [f"{len(self.outcomes)} items"]
        parts += [f"{status}={count}"
                  for status, count in counts.items() if count]
        if self.resumed:
            parts.append(f"resumed={len(self.resumed)}")
        if self.pool_rebuilds:
            parts.append(f"pool_rebuilds={self.pool_rebuilds}")
        return ", ".join(parts)

    def require_complete(self, campaign: str, unit: str) -> None:
        """Raise :class:`~repro.robustness.errors.CampaignError` (exit
        code 18) naming the quarantined indices when any item was lost.

        For consumers that need every item; the message reads
        "``campaign`` lost n of N ``unit`` (summary)".
        """
        if not self.complete:
            raise CampaignError(
                f"{campaign} lost {len(self.quarantined)} of "
                f"{len(self.outcomes)} {unit} ({self.summary()})",
                quarantined=self.quarantined)


# ---------------------------------------------------------------------------
# worker-side trampoline
# ---------------------------------------------------------------------------
# Installed once per worker process by the pool initializer.  The start
# queue is how the parent attributes a SIGKILL'd worker to the item it
# was running: every call announces (pid, index) before doing any work.
_SUPERVISED_STATE: dict = {}


def _supervised_init(queue: object, function: Callable,
                     spool: Optional[str] = None) -> None:
    """Install the start-report queue and the worker callable.

    ``spool`` (set when the parent records spans or metrics) is the
    directory this worker appends its span/metric records to; the
    flush baseline is reset first so recordings inherited from the
    parent at fork time —
    including after a mid-campaign pool rebuild — are never re-spooled.
    """
    _SUPERVISED_STATE["queue"] = queue
    _SUPERVISED_STATE["function"] = function
    _SUPERVISED_STATE["spool"] = spool
    if spool is not None:
        reset_flush_baseline()


def _supervised_call(index: int, item: object) -> object:
    """Announce (pid, index) on the start queue, then run the item.

    With a spool configured, the worker's new spans and metric deltas
    are flushed after the item — success or failure — so the parent
    can merge them even when the attempt raised.
    """
    queue = _SUPERVISED_STATE.get("queue")
    if queue is not None:
        queue.put((os.getpid(), index))
    spool = _SUPERVISED_STATE.get("spool")
    try:
        return _SUPERVISED_STATE["function"](item)
    finally:
        if spool is not None:
            flush_worker_records(spool, index)


@dataclass
class _InFlight:
    """One outstanding ``apply_async`` submission."""

    handle: object
    deadline: Optional[float]


class SupervisedPool:
    """Crash-safe, deadline-enforcing, resumable campaign fan-out.

    The supervised replacement for a bare ``pool.map``: items are
    submitted individually with ``apply_async`` and tracked in a
    deadline ledger, so one poisoned item, hung worker, or SIGKILL'd
    child costs exactly that item's retry budget — never the campaign.

    Mechanics per poll cycle:

    1. **reap** ready results (successes are journaled immediately);
    2. **attribute crashes** — workers announce ``(pid, index)`` on a
       start queue before running an item, so a worker that vanishes
       (its pid left the pool's worker set) indicts exactly the item it
       owned; the pool's own maintenance replaces the dead process, and
       only the indicted item is charged a failed attempt;
    3. **enforce deadlines** — an expired item is charged a timeout and
       the pool is torn down and rebuilt (the only way to kill a stuck
       worker); every other in-flight item is resubmitted without being
       charged.  An item that was itself hung then escapes its own
       charge, so when hangs overlap the ledger depends on how many
       workers ran them;
    4. **retry or quarantine** — a failed item re-queues until
       ``max_item_retries`` is exhausted, then its slot is ``None`` and
       its ledger row says ``timeout`` or ``quarantined``.

    Submission failures on a dead pool (``BrokenPipeError`` & friends)
    also trigger a rebuild.  Without a timeout the fan-out runs in
    process at one effective worker, with the same retries, quarantine
    and journal.

    ``timeout`` is the per-item wall-clock deadline in seconds (``None``
    disables deadlines — and with it the pool-even-at-one-worker mode
    that deadline enforcement needs).  ``max_item_retries`` bounds how
    many *failed* attempts one item may accumulate (crash, timeout, or
    exception all count) before it is quarantined; the first attempt is
    free, so an item sees at most ``max_item_retries + 1`` attempts.
    A retry re-runs the item at once.
    """

    def __init__(self, workers: object = 1,
                 timeout: Optional[float] = None,
                 max_item_retries: int = 2):
        self.workers = resolve_workers(workers)
        self.timeout = timeout
        self.max_item_retries = max_item_retries

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def map(self, function: Callable[[_ItemT], _ResultT],
            items: Sequence[_ItemT],
            journal: object = None,
            key_for: Optional[Callable[[int, _ItemT], str]] = None,
            propagate: bool = False
            ) -> Tuple[List[Optional[_ResultT]], CampaignLedger]:
        """Run every item; return ``(results, ledger)`` in input order.

        Quarantined items leave ``None`` in their result slot unless
        ``propagate`` is set, in which case the first exhausted item
        re-raises its exception (or a
        :class:`~repro.robustness.errors.CampaignError` for timeouts
        and crashes) — the legacy :func:`parallel_map` contract.

        With ``journal`` (a
        :class:`~repro.robustness.checkpoint.CheckpointJournal`) and
        ``key_for`` (mapping ``(index, item)`` to a stable content
        key), completed items are checkpointed as they finish and
        journaled items are served from disk without running.
        """
        items = list(items)
        if journal is not None and key_for is None:
            raise ConfigurationError(
                "supervised map: a checkpoint journal needs a key_for "
                "callback to derive stable item keys")
        outcomes = [ItemOutcome(index=index)
                    for index in range(len(items))]
        results: List[Optional[_ResultT]] = [None] * len(items)
        ledger = CampaignLedger(outcomes=outcomes)
        metrics = get_metrics()
        keys: Optional[List[str]] = None
        pending: List[int] = list(range(len(items)))
        if journal is not None:
            keys = [key_for(index, item)
                    for index, item in enumerate(items)]
            fresh = []
            for index in pending:
                if keys[index] in journal:
                    results[index] = journal.lookup(keys[index])
                    outcomes[index].resumed = True
                    metrics.increment("supervise.resumed")
                else:
                    fresh.append(index)
            pending = fresh
        if not pending:
            return results, ledger

        effective = min(self.workers, len(pending), os.cpu_count() or 1)
        use_pool = self.timeout is not None or \
            (effective > 1 and len(pending) > 1)
        if use_pool:
            # span/metric spool across the process boundary (None
            # while tracer and metrics are disabled — zero overhead)
            spool = create_spool()
            pool_state = self._start_pool(function, max(1, effective),
                                          spool)
            if pool_state is None:
                merge_spool(spool)
                use_pool = False
        if use_pool:
            context, pool, queue = pool_state
            try:
                self._run_pool(context, pool, queue, function, items,
                               pending, results, outcomes, ledger,
                               journal, keys, propagate,
                               max(1, effective), metrics, spool)
            finally:
                merge_spool(spool)
        else:
            self._run_serial(function, items, pending, results,
                             outcomes, journal, keys, propagate,
                             metrics)
        return results, ledger

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------
    def _journal_success(self, journal: object,
                         keys: Optional[List[str]], index: int,
                         value: object, metrics: object) -> None:
        if journal is not None and keys is not None:
            journal.record(keys[index], index, value)
            metrics.increment("supervise.checkpointed")

    def _register_failure(self, outcome: ItemOutcome, kind: str,
                          message: str, metrics: object) -> bool:
        """Charge one failed attempt; True when the item may retry."""
        outcome.failures += 1
        outcome.errors.append(message)
        if kind == "timeout":
            outcome.timeouts += 1
            metrics.increment("supervise.timeouts")
        elif kind == "crash":
            outcome.crashes += 1
            metrics.increment("supervise.crashes")
        else:
            metrics.increment("supervise.failures")
        if outcome.failures <= self.max_item_retries:
            outcome.retries += 1
            metrics.increment("supervise.retries")
            return True
        outcome.status = OUTCOME_TIMEOUT if kind == "timeout" \
            else OUTCOME_QUARANTINED
        metrics.increment("supervise.quarantined")
        return False

    def _finish(self, outcome: ItemOutcome) -> None:
        outcome.status = OUTCOME_RETRIED if outcome.retries \
            else OUTCOME_OK

    # ------------------------------------------------------------------
    # serial path (no timeout enforcement possible in-process)
    # ------------------------------------------------------------------
    def _run_serial(self, function: Callable, items: list,
                    pending: List[int], results: list,
                    outcomes: List[ItemOutcome], journal: object,
                    keys: Optional[List[str]], propagate: bool,
                    metrics: object) -> None:
        for index in pending:
            outcome = outcomes[index]
            while True:
                outcome.attempts += 1
                try:
                    value = function(items[index])
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    if self._register_failure(outcome, "error", message,
                                              metrics):
                        continue
                    if propagate:
                        # repro: allow[E601] deliberate re-raise of the
                        # worker's original exception; converting here
                        # would erase the type callers dispatch on.
                        raise
                    break
                results[index] = value
                self._finish(outcome)
                self._journal_success(journal, keys, index, value,
                                      metrics)
                break

    # ------------------------------------------------------------------
    # pool path
    # ------------------------------------------------------------------
    def _start_pool(self, function: Callable, processes: int,
                    spool: Optional[str] = None):
        """Fork a supervised pool; ``None`` when the sandbox forbids it."""
        try:
            import multiprocessing
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:                    # pragma: no cover
                context = multiprocessing.get_context("spawn")
            queue = context.SimpleQueue()
            pool = context.Pool(
                processes=processes,
                initializer=_supervised_init,
                initargs=(queue, function, spool))
        except (ImportError, OSError):            # pragma: no cover
            # restricted environments (no /dev/shm, fork disabled):
            # degrade to the in-process loop
            return None
        return context, pool, queue

    def _run_pool(self, context: object, pool: object, queue: object,
                  function: Callable, items: list, pending: List[int],
                  results: list, outcomes: List[ItemOutcome],
                  ledger: CampaignLedger, journal: object,
                  keys: Optional[List[str]], propagate: bool,
                  processes: int, metrics: object,
                  spool: Optional[str] = None) -> None:
        timeout = self.timeout
        # waiting entries are (index, charge): resubmissions after a
        # neighbour's deadline rebuilt the pool carry charge=False
        waiting: deque = deque((index, True) for index in pending)
        inflight: Dict[int, _InFlight] = {}
        owner: Dict[int, int] = {}  # worker pid -> item it is running

        def drain_started() -> None:
            while not queue.empty():
                pid, index = queue.get()
                owner[pid] = index

        def rebuild_pool() -> None:
            nonlocal pool
            drain_started()
            pool.terminate()
            pool.join()
            owner.clear()
            ledger.pool_rebuilds += 1
            metrics.increment("supervise.rebuilds")
            pool = context.Pool(
                processes=processes,
                initializer=_supervised_init,
                initargs=(queue, function, spool))

        def submit(index: int, charge: bool) -> None:
            if charge:
                outcomes[index].attempts += 1
            deadline = None if timeout is None \
                else monotonic() + timeout
            try:
                handle = pool.apply_async(_supervised_call,
                                          (index, items[index]))
            except (OSError, ValueError, RuntimeError):
                # dead pool (BrokenPipeError on the task queue, or the
                # pool object already torn down): rebuild and resubmit
                rebuild_pool()
                handle = pool.apply_async(_supervised_call,
                                          (index, items[index]))
            inflight[index] = _InFlight(handle=handle, deadline=deadline)

        def fail(index: int, kind: str, exc: Optional[BaseException]
                 ) -> None:
            if kind == "timeout":
                message = (f"attempt exceeded the {timeout:g}s per-item "
                           f"deadline")
            elif kind == "crash":
                message = "worker process died while running this item"
            else:
                message = f"{type(exc).__name__}: {exc}"
            if self._register_failure(outcomes[index], kind, message,
                                      metrics):
                waiting.append((index, True))
                return
            if propagate:
                if kind == "error":
                    raise exc
                raise CampaignError(
                    f"item {index} {message} "
                    f"({outcomes[index].attempts} attempts)",
                    quarantined=[index])

        try:
            while waiting or inflight:
                while waiting and len(inflight) < processes:
                    index, charge = waiting.popleft()
                    submit(index, charge)
                progressed = False

                # 1. reap completed submissions
                for index in [idx for idx, entry in inflight.items()
                              if entry.handle.ready()]:
                    entry = inflight.pop(index)
                    progressed = True
                    drain_started()
                    for pid in [pid for pid, owned in owner.items()
                                if owned == index]:
                        del owner[pid]
                    try:
                        value = entry.handle.get()
                    except Exception as exc:
                        fail(index, "error", exc)
                    else:
                        results[index] = value
                        self._finish(outcomes[index])
                        self._journal_success(journal, keys, index,
                                              value, metrics)

                # 2. attribute crashed workers to the items they owned
                drain_started()
                workers = list(getattr(pool, "_pool", []))
                if workers:
                    live = {worker.pid for worker in workers
                            if worker.exitcode is None}
                    for pid in [pid for pid in owner
                                if pid not in live]:
                        victim = owner.pop(pid)
                        if victim in inflight:
                            del inflight[victim]
                            progressed = True
                            fail(victim, "crash", None)

                # 3. enforce per-item deadlines; a rebuild is the only
                # way to kill a stuck worker, so the other in-flight
                # items (hung or not) are resubmitted uncharged
                if timeout is not None and inflight:
                    now = monotonic()
                    expired = [index for index, entry
                               in inflight.items()
                               if entry.deadline is not None
                               and now >= entry.deadline]
                    if expired:
                        progressed = True
                        for index in expired:
                            del inflight[index]
                            fail(index, "timeout", None)
                        innocents = list(inflight)
                        inflight.clear()
                        rebuild_pool()
                        for index in reversed(innocents):
                            waiting.appendleft((index, False))

                if not progressed and (waiting or inflight):
                    time.sleep(POLL_INTERVAL)
        finally:
            pool.terminate()
            pool.join()


def supervised_map(function: Callable[[_ItemT], _ResultT],
                   items: Sequence[_ItemT],
                   workers: object = 1,
                   timeout: Optional[float] = None,
                   max_item_retries: int = 2,
                   journal: object = None,
                   key_for: Optional[Callable[[int, _ItemT], str]] = None
                   ) -> Tuple[List[Optional[_ResultT]], CampaignLedger]:
    """One-call supervised fan-out; returns ``(results, ledger)``.

    The campaign entry point: quarantined items leave ``None`` slots
    and a ledger row explaining why, instead of aborting the run
    (:meth:`CampaignLedger.require_complete` turns them into a
    :class:`~repro.robustness.errors.CampaignError`).  See
    :class:`SupervisedPool` for the supervision mechanics and the
    meaning of each argument.
    """
    pool = SupervisedPool(workers=workers, timeout=timeout,
                          max_item_retries=max_item_retries)
    return pool.map(function, items, journal=journal, key_for=key_for)


def parallel_map(function: Callable[[_ItemT], _ResultT],
                 items: Sequence[_ItemT],
                 workers: object = 1,
                 timeout: Optional[float] = None,
                 max_item_retries: int = 0) -> List[_ResultT]:
    """Map ``function`` over ``items``, optionally across processes.

    The strict contract on top of :class:`SupervisedPool`: results come
    back in input order and any item that exhausts its retry budget (0
    by default) re-raises — the worker's exception for failures,
    :class:`~repro.robustness.errors.CampaignError` for timeouts and
    crashes.  With ``workers <= 1`` (or one item, or no usable
    ``multiprocessing``) and no ``timeout``, this runs in-process.
    """
    pool = SupervisedPool(workers=workers, timeout=timeout,
                          max_item_retries=max_item_retries)
    results, _ = pool.map(function, items, propagate=True)
    return results
