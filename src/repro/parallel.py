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
  of worker count and scheduling; the supervision ledger is equally
  scheduling-independent (an innocent item resubmitted because a
  *neighbor* hung or crashed is never charged an attempt);
* **supervised** — :class:`SupervisedPool` submits items individually
  (``apply_async`` plus a deadline ledger) so it can enforce a per-item
  wall-clock timeout, detect crashed workers (dead pool /
  ``BrokenPipeError``) and rebuild the pool, retry failed items with
  seeded backoff, and quarantine items that exhaust their retry budget
  instead of aborting the campaign — returning a typed per-item
  :class:`ItemOutcome` ledger (``ok | retried | timeout | quarantined``)
  alongside the results;
* **resumable** — pass a
  :class:`~repro.robustness.checkpoint.CheckpointJournal` plus a
  ``key_for`` callback and every completed item is journaled; a resumed
  run skips journaled items bit-identically;
* **degradable** — without a timeout or journal, ``workers=1`` (the
  default everywhere) never touches ``multiprocessing``: it runs the
  plain in-process loop, bit-identical to not using this module at all,
  which is also the fallback when a pool cannot be created (restricted
  sandboxes).

The worker function and its items must be picklable (top-level
functions, dataclasses, numpy arrays).  Per-worker state that is
expensive to pickle per item (a
:class:`~repro.hardware.device.HardwareDevice`, a trained model) goes
through ``initializer``/``initargs`` and lives in the worker's module
globals.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

import numpy as np

from .ipc import SharedArrayArena, export_value
from .observability.metrics import get_metrics
from .observability.tracer import (create_spool, flush_worker_records,
                                   merge_spool, monotonic,
                                   reset_flush_baseline)
from .robustness.errors import CampaignError, ConfigurationError

__all__ = ["resolve_workers", "parallel_map", "spawn_seed",
           "supervised_map", "retry_backoff", "SupervisedPool",
           "SupervisionPolicy", "ItemOutcome", "CampaignLedger",
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

RETRY_STREAM = 0x5EED
"""The :func:`spawn_seed` stream reserved for retry-backoff jitter
(far above the small stream numbers campaign items use for their own
RNG consumers, so backoff draws can never collide with capture noise)."""


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


def retry_backoff(seed: int, index: int, retry_index: int,
                  base: float = 0.05, cap: float = 1.0) -> float:
    """Deterministic exponential backoff with seeded jitter (seconds).

    Retry ``retry_index`` (0-based) of item ``index`` waits
    ``base * 2**retry_index`` scaled by a jitter factor in ``[0.5,
    1.5)`` drawn from ``spawn_seed(seed, index, RETRY_STREAM)`` —
    the same recipe :class:`~repro.robustness.retry.RetryPolicy` uses,
    keyed per item so two quarreling items never synchronize, and a
    pure function of ``(seed, index, retry_index)`` so the supervision
    ledger stays reproducible.
    """
    draws = spawn_seed(seed, index, stream=RETRY_STREAM).random(
        retry_index + 1)
    jitter = 0.5 + float(draws[retry_index])
    return float(min(cap, base * (2.0 ** retry_index) * jitter))


@dataclass
class SupervisionPolicy:
    """Knobs governing one supervised fan-out.

    ``timeout`` is the per-item wall-clock deadline in seconds (``None``
    disables deadlines — and with it the pool-even-at-one-worker mode
    that deadline enforcement needs).  ``max_item_retries`` bounds how
    many *failed* attempts one item may accumulate (crash, timeout, or
    exception all count) before it is quarantined; the first attempt is
    free, so an item sees at most ``max_item_retries + 1`` attempts.
    ``sleep`` is the backoff actuator: ``None`` (the default) records
    the deterministic wait in the ledger without actually sleeping —
    the simulation bench gains nothing from waiting, exactly like
    :class:`~repro.robustness.retry.RetryPolicy` — while bench code
    driving real hardware passes ``time.sleep``.
    """

    timeout: Optional[float] = None
    max_item_retries: int = 2
    seed: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    sleep: Optional[Callable[[float], None]] = None
    poll_interval: float = 0.01

    def backoff(self, index: int, retry_index: int) -> float:
        """Backoff for retry ``retry_index`` of item ``index``."""
        return retry_backoff(self.seed, index, retry_index,
                             base=self.backoff_base,
                             cap=self.backoff_cap)


@dataclass
class ItemOutcome:
    """Per-item supervision record (one ledger row).

    ``status`` is one of :data:`OUTCOME_OK`, :data:`OUTCOME_RETRIED`,
    :data:`OUTCOME_TIMEOUT`, :data:`OUTCOME_QUARANTINED`.  ``attempts``
    counts *charged* attempts only — an innocent item resubmitted
    because the pool was rebuilt under it keeps its count, which is
    what makes the ledger independent of worker count.  ``waited`` is
    the total deterministic backoff attributed to the item (recorded
    even when the policy does not actually sleep); ``resumed`` marks
    items served from a checkpoint journal without running at all.
    """

    index: int
    status: str = OUTCOME_OK
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: List[str] = field(default_factory=list)
    waited: float = 0.0
    resumed: bool = False

    def to_dict(self) -> dict:
        """JSON-ready row (benchmark reports embed these)."""
        return {"index": self.index, "status": self.status,
                "attempts": self.attempts, "retries": self.retries,
                "timeouts": self.timeouts, "crashes": self.crashes,
                "errors": list(self.errors), "waited": self.waited,
                "resumed": self.resumed}


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


# ---------------------------------------------------------------------------
# worker-side trampoline
# ---------------------------------------------------------------------------
# Installed once per worker process by the pool initializer.  The start
# queue is how the parent attributes a SIGKILL'd worker to the item it
# was running: every call announces (pid, index) before doing any work.
_SUPERVISED_STATE: dict = {}


def _supervised_init(queue: object, function: Callable,
                     initializer: Optional[Callable],
                     initargs: tuple,
                     spool: Optional[str] = None,
                     arena_prefix: Optional[str] = None) -> None:
    """Install the start-report queue + user initializer in a worker.

    ``spool`` (set when the parent records spans or metrics) is the
    directory this worker appends its span/metric records to; the
    flush baseline is reset first so recordings inherited from the
    parent at fork time —
    including after a mid-campaign pool rebuild — are never re-spooled.
    ``arena_prefix`` (set when the parent opened a
    :class:`~repro.ipc.SharedArrayArena`) turns on shared-memory export
    of large result arrays.
    """
    _SUPERVISED_STATE["queue"] = queue
    _SUPERVISED_STATE["function"] = function
    _SUPERVISED_STATE["spool"] = spool
    _SUPERVISED_STATE["arena"] = arena_prefix
    if spool is not None:
        reset_flush_baseline()
    if initializer is not None:
        initializer(*initargs)


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
    arena_prefix = _SUPERVISED_STATE.get("arena")
    if spool is None:
        return _export(_SUPERVISED_STATE["function"](item), arena_prefix)
    try:
        return _export(_SUPERVISED_STATE["function"](item), arena_prefix)
    finally:
        flush_worker_records(spool, index)


def _export(value: object, arena_prefix: Optional[str]) -> object:
    """Route a worker result through the shared-memory arena if open."""
    if arena_prefix is None:
        return value
    return export_value(value, arena_prefix)


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
       worker); in-flight *innocents* are resubmitted without being
       charged, keeping the ledger independent of scheduling;
    4. **retry or quarantine** — a failed item re-queues with
       deterministic seeded backoff until ``max_item_retries`` is
       exhausted, then its slot is ``None`` and its ledger row says
       ``timeout`` or ``quarantined``.

    Submission failures on a dead pool (``BrokenPipeError`` & friends)
    also trigger a rebuild.  Without a timeout the fan-out degrades to
    the legacy in-process loop at one effective worker — bit-identical
    to the pre-supervision code path.
    """

    def __init__(self, workers: object = 1,
                 initializer: Optional[Callable] = None,
                 initargs: tuple = (),
                 policy: Optional[SupervisionPolicy] = None,
                 transport: str = "auto"):
        self.workers = resolve_workers(workers)
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy or SupervisionPolicy()
        if transport not in ("auto", "shared", "codec"):
            raise ConfigurationError(
                f"invalid transport {transport!r}: expected 'auto', "
                f"'shared', or 'codec'")
        self.transport = transport

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
        use_pool = self.policy.timeout is not None or \
            (effective > 1 and len(pending) > 1)
        if use_pool:
            # span/metric spool across the process boundary (None
            # while tracer and metrics are disabled — zero overhead)
            spool = create_spool()
            # shared-memory result channel: large arrays cross the
            # process boundary as segment refs instead of pickle bytes
            # (transport="codec" or unusable shared memory -> pipe)
            arena = None
            if self.transport != "codec":
                arena = SharedArrayArena.create_if_available()
                if arena is None and self.transport == "shared":
                    raise ConfigurationError(
                        "transport='shared' requested but shared memory "
                        "is unavailable here (or REPRO_NO_SHM is set)")
            pool_state = self._start_pool(
                function, max(1, effective), spool,
                arena.prefix if arena is not None else None)
            if pool_state is None:
                merge_spool(spool)
                if arena is not None:
                    arena.close()
                    arena = None
                use_pool = False
        if use_pool:
            context, pool, queue = pool_state
            try:
                self._run_pool(context, pool, queue, function, items,
                               pending, results, outcomes, ledger,
                               journal, keys, propagate,
                               max(1, effective), metrics, spool,
                               arena)
            finally:
                merge_spool(spool)
                if arena is not None:
                    arena.close()
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

    def _note_retry(self, outcome: ItemOutcome,
                    metrics: object) -> None:
        wait = self.policy.backoff(outcome.index, outcome.retries)
        outcome.retries += 1
        outcome.waited += wait
        metrics.increment("supervise.retries")
        if self.policy.sleep is not None:
            self.policy.sleep(wait)

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
        if outcome.failures <= self.policy.max_item_retries:
            self._note_retry(outcome, metrics)
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
        if self.initializer is not None:
            self.initializer(*self.initargs)
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
                    spool: Optional[str] = None,
                    arena_prefix: Optional[str] = None):
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
                initargs=(queue, function, self.initializer,
                          self.initargs, spool, arena_prefix))
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
                  spool: Optional[str] = None,
                  arena: Optional[SharedArrayArena] = None) -> None:
        timeout = self.policy.timeout
        # waiting entries are (index, charge): innocent resubmissions
        # after a rebuild carry charge=False so the ledger never depends
        # on which neighbor happened to hang
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
                initargs=(queue, function, self.initializer,
                          self.initargs, spool,
                          arena.prefix if arena is not None else None))

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
                        # claim shared-memory refs back into ordinary
                        # arrays *before* journaling, so checkpoint
                        # bytes are identical on every transport
                        if arena is not None:
                            value = arena.claim(value)
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
                # way to kill a stuck worker, so in-flight innocents are
                # resubmitted uncharged afterwards
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
                    time.sleep(self.policy.poll_interval)
        finally:
            pool.terminate()
            pool.join()


def supervised_map(function: Callable[[_ItemT], _ResultT],
                   items: Sequence[_ItemT],
                   workers: object = 1,
                   initializer: Optional[Callable] = None,
                   initargs: tuple = (),
                   timeout: Optional[float] = None,
                   max_item_retries: int = 2,
                   seed: int = 0,
                   journal: object = None,
                   key_for: Optional[Callable[[int, _ItemT], str]] = None,
                   sleep: Optional[Callable[[float], None]] = None,
                   transport: str = "auto"
                   ) -> Tuple[List[Optional[_ResultT]], CampaignLedger]:
    """One-call supervised fan-out; returns ``(results, ledger)``.

    The campaign entry point: quarantined items leave ``None`` slots
    and a ledger row explaining why, instead of aborting the run.  See
    :class:`SupervisedPool` for the supervision mechanics and
    :class:`SupervisionPolicy` for the knob semantics.  ``transport``
    selects the result channel for pool runs: ``"auto"`` (default)
    ships large arrays through a :class:`~repro.ipc.SharedArrayArena`
    when shared memory is usable, ``"codec"`` forces the legacy
    pickle/codec pipe, ``"shared"`` requires shared memory.
    """
    pool = SupervisedPool(
        workers=workers, initializer=initializer, initargs=initargs,
        policy=SupervisionPolicy(timeout=timeout,
                                 max_item_retries=max_item_retries,
                                 seed=seed, sleep=sleep),
        transport=transport)
    return pool.map(function, items, journal=journal, key_for=key_for)


def parallel_map(function: Callable[[_ItemT], _ResultT],
                 items: Sequence[_ItemT],
                 workers: object = 1,
                 initializer: Optional[Callable] = None,
                 initargs: tuple = (),
                 timeout: Optional[float] = None,
                 max_item_retries: int = 0) -> List[_ResultT]:
    """Map ``function`` over ``items``, optionally across processes.

    The strict legacy contract on top of :class:`SupervisedPool`:
    results come back in input order and any item that exhausts its
    retry budget (0 by default) re-raises — the worker's exception for
    failures, :class:`~repro.robustness.errors.CampaignError` for
    timeouts and crashes.  With ``workers <= 1`` (or one item, or no
    usable ``multiprocessing``) and no ``timeout``, this runs
    in-process: the ``initializer`` is invoked once and the loop is a
    plain ``for`` — bit-identical to not using this module at all.
    """
    pool = SupervisedPool(
        workers=workers, initializer=initializer, initargs=initargs,
        policy=SupervisionPolicy(timeout=timeout,
                                 max_item_retries=max_item_retries))
    results, _ = pool.map(function, items, propagate=True)
    return results
