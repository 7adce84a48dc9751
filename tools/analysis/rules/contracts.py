"""Error-contract rules (``E3xx``): failures must stay typed and
mapped to the documented exit-code table.

The ``ReproError`` hierarchy lets scripted pipelines branch on failure
families via exit codes.  These passes keep that contract tight: no
handler may silently eat an exception, every literal process exit code
must appear in the table in ``docs/robustness.md``, and campaign
fan-outs state their deadline.  What may escape the CLI entry points is
the whole-program pass ``E601`` (:mod:`.wholeprogram`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..config import path_matches
from ..core import FileContext, Rule


class BareExceptRule(Rule):
    """E301: no bare ``except:`` (or ``except BaseException:``).

    A bare handler catches ``SystemExit`` and ``KeyboardInterrupt``
    too, turning an operator's Ctrl-C into whatever the handler does;
    catch the narrowest ``ReproError`` family the caller can handle.
    """

    rule_id = "E301"
    family = "contracts"
    title = "bare except clause"
    node_types = (ast.ExceptHandler,)

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        """True when the handler body contains a bare ``raise``."""
        return any(isinstance(child, ast.Raise) and child.exc is None
                   for child in ast.walk(node))

    def check_node(self, node: ast.ExceptHandler,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if node.type is None:
            yield node, ("bare except: catches SystemExit and "
                         "KeyboardInterrupt; name the exception "
                         "family this code can actually handle")
        elif ctx.qualname(node.type) == "BaseException" and \
                not self._reraises(node):
            yield node, ("except BaseException: without re-raising "
                         "catches interpreter exits; re-raise, or "
                         "catch Exception / a ReproError family")


class SwallowedExceptionRule(Rule):
    """E302: an except body must *do* something with the failure.

    A handler whose entire body is ``pass`` (or ``...``) erases the
    error and every bit of evidence it existed.  Count it, log it,
    re-raise it, or fold the fallback logic into the handler itself;
    genuinely best-effort paths spell the intent out with
    ``contextlib.suppress(SpecificError)``.
    """

    rule_id = "E302"
    family = "contracts"
    title = "swallowed exception"
    node_types = (ast.ExceptHandler,)

    def check_node(self, node: ast.ExceptHandler,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        body = node.body
        if len(body) == 1 and (
                isinstance(body[0], ast.Pass) or
                (isinstance(body[0], ast.Expr) and
                 isinstance(body[0].value, ast.Constant) and
                 body[0].value.value is Ellipsis)):
            yield node, ("exception swallowed by an empty handler; "
                         "record it, re-raise, or move the fallback "
                         "into the handler body")


class ExitCodeTableRule(Rule):
    """E304: literal exit codes must come from the documented table.

    ``docs/robustness.md`` maps each ``ReproError`` family to one code;
    an undocumented ``sys.exit(3)`` silently forks that contract.
    Computed codes (``sys.exit(main())``) are trusted.
    """

    rule_id = "E304"
    family = "contracts"
    title = "undocumented literal exit code"
    node_types = (ast.Call,)

    def check_node(self, node: ast.Call,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        if ctx.qualname(node.func) not in ("sys.exit", "os._exit"):
            return
        if len(node.args) != 1 or node.keywords:
            return
        code = node.args[0]
        if isinstance(code, ast.Constant) and \
                isinstance(code.value, int) and \
                not isinstance(code.value, bool) and \
                code.value not in ctx.config.exit_codes:
            yield node, (f"exit code {code.value} is not in the "
                         f"documented ReproError table "
                         f"(docs/robustness.md); add it there or map "
                         f"through exit_code_for()")


class CampaignTimeoutRule(Rule):
    """E305: campaign fan-outs must pass an explicit ``timeout=``.

    The supervised pool treats a missing ``timeout`` as "no deadline" —
    correct for short fan-outs, but in the campaign modules (model
    training, TVLA, SAVAT — the hours-long workloads) a hung worker
    then blocks the run forever.  Every ``parallel_map``/
    ``supervised_map`` call in a module configured under
    ``campaign-modules`` must state its deadline policy explicitly,
    even if that statement is ``timeout=None`` (visibly opting out) or
    a forwarded variable.  Calls that splat ``**kwargs`` are trusted.
    """

    rule_id = "E305"
    family = "contracts"
    title = "campaign fan-out without an explicit timeout"
    node_types = (ast.Call,)

    #: the supervised fan-out entry points of ``repro.parallel``.
    FANOUT_FNS = frozenset({"parallel_map", "supervised_map"})

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.campaign_modules)

    def check_node(self, node: ast.Call,
                   ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        qual = ctx.qualname(node.func)
        if qual is None:
            return
        name = qual.rpartition(".")[2]
        if name not in self.FANOUT_FNS:
            return
        for keyword in node.keywords:
            if keyword.arg == "timeout" or keyword.arg is None:
                return
        yield node, (f"{name} call in a campaign module without an "
                     f"explicit timeout=; state the per-item deadline "
                     f"(or timeout=None to visibly opt out) so hung "
                     f"workers cannot sink an hours-long run")
