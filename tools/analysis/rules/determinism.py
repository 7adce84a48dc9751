"""Determinism rules (``D1xx``): every run must be a pure function of
its seeds.

The reproduction's acceptance bar is bit-identical output across runs,
worker counts, and machines.  These passes catch the classic ways
Python code silently breaks that: hidden global RNG state, clock reads
inside the simulation core, filesystem enumeration order, set-iteration
order, and process pools that bypass the sanctioned spawn-seeded
fan-out in :mod:`repro.parallel`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..config import path_matches
from ..core import FileContext, Rule

#: module-level :mod:`random` functions backed by the shared global
#: Mersenne Twister (list mirrors the stdlib docs).
GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: legacy ``numpy.random`` module functions backed by the global
#: ``RandomState`` (seeded or not, they are shared mutable state).
GLOBAL_NP_RANDOM_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "laplace",
    "lognormal", "normal", "permutation", "poisson", "rand", "randint",
    "randn", "random", "random_sample", "ranf", "sample", "seed",
    "set_state", "shuffle", "standard_normal", "uniform",
})

#: constructors that are fine *with* a seed but nondeterministic bare.
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
})

#: wall-clock reads: the value depends on when the run happens.
WALL_CLOCK_FNS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.asctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: monotonic clocks: fine for instrumentation, banned in the
#: simulation core where outputs must not depend on timing at all.
MONOTONIC_CLOCK_FNS = frozenset({
    "time.monotonic", "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
})

#: filesystem enumerators whose order is OS/filesystem dependent.
UNORDERED_WALK_FNS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})


class UnseededRngRule(Rule):
    """D101: randomness must come from an explicitly seeded generator."""

    rule_id = "D101"
    family = "determinism"
    title = "unseeded or global RNG state"
    node_types = (ast.Call,)

    def check_node(self, node: ast.Call,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        qual = ctx.qualname(node.func)
        if qual is None:
            return
        module, _, name = qual.rpartition(".")
        if module == "random" and name in GLOBAL_RANDOM_FNS:
            yield node, (f"random.{name}() draws from the shared global "
                         f"Mersenne Twister; use a seeded "
                         f"random.Random(seed) instance")
        elif module == "numpy.random" and name in GLOBAL_NP_RANDOM_FNS:
            yield node, (f"np.random.{name}() mutates numpy's global "
                         f"RandomState; use np.random.default_rng(seed) "
                         f"or repro.parallel.spawn_seed")
        elif qual in SEEDED_CONSTRUCTORS and not node.args and \
                not node.keywords:
            yield node, (f"{qual}() without a seed is entropy-seeded "
                         f"and breaks run-to-run reproducibility")


class WallClockRule(Rule):
    """D102: no clock reads where outputs must be seed-pure.

    Wall-clock calls are banned everywhere on the lint surface;
    monotonic clocks (``perf_counter`` and friends) are additionally
    banned inside the ``monotonic-strict`` packages — the simulation
    core's outputs must not be able to depend on timing.  Modules
    listed as ``clock-owner-modules`` (the span tracer) are exempt:
    they *are* the sanctioned place to read clocks.
    """

    rule_id = "D102"
    family = "determinism"
    title = "wall-clock or in-core monotonic clock read"
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not path_matches(ctx.path,
                                ctx.config.clock_owner_modules)

    def check_node(self, node: ast.Call,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        qual = ctx.qualname(node.func)
        if qual in WALL_CLOCK_FNS:
            yield node, (f"{qual}() reads the wall clock; outputs must "
                         f"be a pure function of seeds and inputs")
        elif qual in MONOTONIC_CLOCK_FNS and \
                path_matches(ctx.path, ctx.config.monotonic_strict):
            yield node, (f"{qual}() inside the simulation core; route "
                         f"timing through repro.observability "
                         f"(monotonic()/Tracer.span) so core outputs "
                         f"stay seed-pure")


class UnsortedWalkRule(Rule):
    """D103: filesystem enumeration must be wrapped in ``sorted()``.

    ``os.listdir`` and friends return entries in on-disk order, which
    differs across filesystems and inode histories; any sequence built
    from them must be explicitly ordered before it feeds returned or
    serialized data.
    """

    rule_id = "D103"
    family = "determinism"
    title = "unsorted directory enumeration"
    node_types = (ast.Call,)

    def check_node(self, node: ast.Call,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        qual = ctx.qualname(node.func)
        is_walk = qual in UNORDERED_WALK_FNS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("iterdir", "rglob"))
        if not is_walk:
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.Call) and \
                isinstance(parent.func, ast.Name) and \
                parent.func.id == "sorted":
            return
        label = qual or f"*.{node.func.attr}"
        yield node, (f"{label}() enumerates the filesystem in "
                     f"OS-dependent order; wrap the call in sorted()")


class SetIterationRule(Rule):
    """D104: don't iterate a freshly built set into an ordered context.

    ``for x in set(...)`` and ``list(set(...))`` leak hash-table order
    into whatever consumes the loop; when the elements are strings the
    order even changes across interpreter runs (hash randomization).
    ``sorted(set(...))`` is the sanctioned spelling.
    """

    rule_id = "D104"
    family = "determinism"
    title = "iteration over an unordered set"
    node_types = (ast.For, ast.comprehension, ast.Call)

    @staticmethod
    def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and \
            ctx.qualname(node.func) in ("set", "frozenset")

    def check_node(self, node: ast.AST,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, (ast.For, ast.comprehension)):
            if self._is_set_expr(node.iter, ctx):
                yield node.iter, ("iterating a set leaks hash-table "
                                  "order; use sorted(...) to fix the "
                                  "iteration order")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("list", "tuple") and \
                len(node.args) == 1 and \
                self._is_set_expr(node.args[0], ctx):
            yield node, (f"{node.func.id}(set(...)) materializes "
                         f"hash-table order; use sorted(...) instead")


class ForeignPoolRule(Rule):
    """D105: process fan-out happens only in :mod:`repro.parallel`.

    That module owns the one deterministic recipe (ordered results,
    per-item ``spawn_seed``, graceful single-process degrade); ad-hoc
    pools elsewhere reintroduce scheduling-dependent results.
    """

    rule_id = "D105"
    family = "determinism"
    title = "process pool outside repro.parallel"
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    POOL_MODULES = ("multiprocessing", "concurrent.futures")
    FORK_FNS = frozenset({"os.fork", "os.forkpty", "os.spawnl",
                          "os.spawnlp", "os.spawnv", "os.spawnvp"})

    def applies_to(self, ctx: FileContext) -> bool:
        return not path_matches(ctx.path, ctx.config.pool_modules)

    def check_node(self, node: ast.AST,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multiprocessing" or \
                        alias.name.startswith("concurrent.futures"):
                    yield node, (f"import {alias.name}: process pools "
                                 f"belong in repro.parallel "
                                 f"(parallel_map + spawn_seed)")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing" or \
                    module.startswith("concurrent.futures"):
                yield node, (f"from {module} import ...: process pools "
                             f"belong in repro.parallel "
                             f"(parallel_map + spawn_seed)")
        elif isinstance(node, ast.Call) and \
                ctx.qualname(node.func) in self.FORK_FNS:
            yield node, (f"{ctx.qualname(node.func)}() outside "
                         f"repro.parallel; use parallel_map")
