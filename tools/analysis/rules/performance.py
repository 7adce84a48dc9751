"""Performance rules (``P6xx``): the simulation hot path must not churn
objects.

The columnar activity-trace engine removed per-cycle dict/dataclass
construction from recording (``docs/architecture.md``); a 3000-cycle
kernel used to build five ``StageOccupancy`` objects and several dicts
*every cycle*, and that allocation traffic — not arithmetic — dominated
cold simulate time.  This pass keeps the win: any allocation expression
that re-enters a configured hot-loop function is a finding, so a casual
"just build a small dict here" refactor fails ``make lint`` instead of
silently costing 2x.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, Optional, Tuple

from ..core import FileContext, Rule


def _enclosing_function(node: ast.AST, ctx: FileContext
                        ) -> Optional[Tuple[str, ast.stmt]]:
    """``(qualified name, enclosing statement)`` of the function whose
    body contains ``node`` (``None`` at module scope or in default
    arguments).

    Methods qualify as ``Class.method``; module-level functions as
    ``module.function`` (the module's file stem) — the two naming
    schemes the ``hot-loop-functions`` and ``convolve-oracle-functions``
    config lists use.
    """
    statement: Optional[ast.stmt] = None
    cursor: Optional[ast.AST] = node
    while cursor is not None:
        parent = ctx.parent(cursor)
        if isinstance(cursor, ast.arguments):
            return None  # default values evaluate at def time
        if isinstance(cursor, ast.stmt) and statement is None and \
                not isinstance(cursor, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
            statement = cursor
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(parent, ast.ClassDef):
                scope = parent.name
            elif isinstance(parent, ast.Module):
                scope = os.path.basename(ctx.path)[:-len(".py")]
            else:
                cursor = parent
                continue  # nested function: resolve at the outer scope
            return f"{scope}.{cursor.name}", statement or cursor
        cursor = parent
    return None

#: allocation expression nodes flagged inside hot-loop functions.
_ALLOCATION_NODES = {
    ast.Dict: "dict display",
    ast.List: "list display",
    ast.Set: "set display",
    ast.DictComp: "dict comprehension",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.GeneratorExp: "generator expression",
}

#: builtin constructors flagged when called by name.
_ALLOCATION_CALLS = frozenset({"dict", "list", "set"})


class HotLoopAllocationRule(Rule):
    """P601: no per-call container/object construction in hot loops.

    A function listed under ``hot-loop-functions`` (as
    ``Class.method``) runs once per simulated cycle — or per latch
    write, several times per cycle.  Inside it, every dict/list/set
    display or comprehension, every ``dict()``/``list()``/``set()``
    call, and every construction of a type listed under
    ``hot-loop-types`` is a finding.  Findings anchor at the enclosing
    *statement*, so a standalone allow comment above the statement
    covers a multi-line construction.  Default-argument expressions are
    exempt (they evaluate once at ``def`` time).
    """

    rule_id = "P601"
    family = "performance"
    title = "per-call allocation in a hot-loop function"
    node_types = tuple(_ALLOCATION_NODES) + (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return bool(ctx.config.hot_loop_functions)

    def _describe(self, node: ast.AST,
                  ctx: FileContext) -> Optional[str]:
        """What ``node`` allocates, or ``None`` if it is not flagged."""
        if type(node) in _ALLOCATION_NODES:
            return _ALLOCATION_NODES[type(node)]
        qual = ctx.qualname(node.func)
        if qual is None:
            return None
        name = qual.rpartition(".")[2]
        if qual in _ALLOCATION_CALLS:
            return f"{qual}() call"
        if name in ctx.config.hot_loop_types:
            return f"{name} construction"
        return None

    def _hot_function(self, node: ast.AST,
                      ctx: FileContext) -> Optional[Tuple[str, ast.stmt]]:
        """``(qualified name, enclosing statement)`` when ``node`` sits
        in a configured hot-loop function's body (``None`` otherwise);
        functions resolve at their own scope only."""
        located = _enclosing_function(node, ctx)
        if located is None or \
                located[0] not in ctx.config.hot_loop_functions:
            return None
        return located

    def check_node(self, node: ast.AST,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        description = self._describe(node, ctx)
        if description is None:
            return
        located = self._hot_function(node, ctx)
        if located is None:
            return
        qualified, statement = located
        yield statement, (f"{description} in hot-loop function "
                          f"{qualified}; this runs every simulated "
                          f"cycle (or once per trace in the signal "
                          f"engine) — hoist the construction out of "
                          f"the hot path (precomputed table, "
                          f"preallocated buffer, or positional writer)")


class ConvolveOutsideOracleRule(Rule):
    """P602: direct ``np.convolve`` only in the sanctioned oracle path.

    The signal engine replaced direct Eq. 6 convolution with a planned
    polyphase/FFT synthesis (``repro.signal.reconstruction``); the
    seed's ``np.convolve`` evaluation survives only as the test oracle
    the engine is asserted against.  Any ``np.convolve`` call in the
    source tree is a finding unless
    its enclosing function is listed under
    ``convolve-oracle-functions`` (same ``Class.method`` /
    ``module.function`` naming as the P601 list) or the site carries an
    explicit ``allow[P602]`` tag — signal *filtering* legitimately
    convolves, and the tags keep those sites audited decisions.
    """

    rule_id = "P602"
    family = "performance"
    title = "direct convolution outside the sanctioned oracle path"
    node_types = (ast.Call,)

    def check_node(self, node: ast.AST,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if ctx.qualname(node.func) != "numpy.convolve":
            return
        located = _enclosing_function(node, ctx)
        if located is not None and \
                located[0] in ctx.config.convolve_oracle_functions:
            return
        yield node, ("np.convolve outside the sanctioned direct-oracle "
                     "path; synthesize Eq. 6 waveforms through the "
                     "planned engine (repro.signal.reconstruction."
                     "reconstruct) — or tag a legitimate filtering "
                     "convolution with allow[P602]")
