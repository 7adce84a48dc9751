"""Tests for the whole-program analysis layer (``tools/analysis``).

Covers the :class:`ProjectIndex` (module resolution, re-export and
star-import chasing, import cycles), the :class:`CallGraph` (including
the name-based dynamic-call fallback), the three interprocedural rule
families (``D201`` seed provenance, ``E601`` exit-code contracts,
``X701`` IPC hygiene) over fixture trees, the ``E000`` syntax-error
contract, and the ``A405`` stale/unknown allow-tag audit.
"""

from __future__ import annotations

import os
import sys
import textwrap
from dataclasses import replace

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.analysis import (AnalysisConfig, Analyzer,  # noqa: E402
                            check_source)
from tools.analysis.callgraph import (CallGraph,  # noqa: E402
                                      ExceptionHierarchy)
from tools.analysis.core import (SyntaxErrorRule,  # noqa: E402
                                 UnusedSuppressionRule)
from tools.analysis.project import module_name_for  # noqa: E402
from tools.analysis.rules.contracts import ExitCodeTableRule  # noqa: E402
from tools.analysis.rules.determinism import UnseededRngRule  # noqa: E402
from tools.analysis.rules.wholeprogram import (  # noqa: E402
    ExitContractRule, IpcHygieneRule, SeedProvenanceRule)


def write_tree(root, files):
    """Materialize ``{relative path: dedented source}`` under ``root``."""
    for relative, source in files.items():
        path = os.path.join(str(root), relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(textwrap.dedent(source))


def fixture_config(**overrides):
    """Config aimed at a fixture tree: scan everything from its root."""
    base = replace(AnalysisConfig(), paths=["."], source_roots=["."],
                   cli_modules=["cli.py"])
    return replace(base, **overrides) if overrides else base


def build_index(root, config, rules=()):
    """The ProjectIndex an Analyzer would build over ``root``."""
    analyzer = Analyzer(list(rules), config, root=str(root))
    return analyzer.build_index(analyzer.python_files())


# ---------------------------------------------------------------------------
# ProjectIndex: module naming, resolution
# ---------------------------------------------------------------------------
class TestProjectIndex:
    def test_module_name_for_source_roots(self):
        roots = ["src", "."]
        assert module_name_for("src/repro/cli.py", roots) == \
            ("repro.cli", False)
        assert module_name_for("tools/analysis/__init__.py", roots) == \
            ("tools.analysis", True)
        assert module_name_for("README.md", roots) is None
        assert module_name_for("src/bad-name/x.py", roots) is None

    def test_resolve_through_init_reexport(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "from .impl import thing\n",
            "pkg/impl.py": "def thing():\n    return 1\n",
        })
        index = build_index(tmp_path, fixture_config())
        assert index.resolve("pkg.thing") == \
            ("function", "pkg.impl", "thing")
        assert index.resolve("pkg.impl.thing") == \
            ("function", "pkg.impl", "thing")
        assert index.resolve("pkg.missing") is None
        assert index.resolve("numpy.random.normal") is None

    def test_resolve_through_star_import(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "from .impl import *\n",
            "pkg/impl.py": "class Thing:\n    pass\n",
        })
        index = build_index(tmp_path, fixture_config())
        assert index.resolve("pkg.Thing") == \
            ("class", "pkg.impl", "Thing")

    def test_import_cycle_terminates(self, tmp_path):
        write_tree(tmp_path, {
            "a.py": "import b\n\ndef fa():\n    return b.fb()\n",
            "b.py": "import a\n\ndef fb():\n    return a.fa()\n",
        })
        index = build_index(tmp_path, fixture_config())
        # resolution across the cycle terminates (visited set)
        assert index.resolve("a.fa") == ("function", "a", "fa")


# ---------------------------------------------------------------------------
# CallGraph: dynamic-call fallback, exception hierarchy
# ---------------------------------------------------------------------------
class TestCallGraph:
    def test_dynamic_call_name_fallback(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": """\
                def double(x):
                    return 2 * x

                def apply(fn, x):
                    return fn(x)
                """,
        })
        index = build_index(tmp_path, fixture_config())
        graph = CallGraph(index)
        assert list(graph.resolve_callable(
            "dyn", "double", cls=None, module="m")) == [("m", "double")]
        assert list(graph.resolve_callable(
            "dyn", "nonesuch", cls=None, module="m")) == []

    def test_dynamic_fallback_respects_fanout_cap(self, tmp_path):
        write_tree(tmp_path, {
            "a.py": "def work(x):\n    return x\n",
            "b.py": "def work(x):\n    return -x\n",
        })
        config = fixture_config(dynamic_call_fanout=1)
        graph = CallGraph(build_index(tmp_path, config))
        # two candidates over the cap of one: opaque, no edges
        assert list(graph.resolve_callable(
            "dyn", "work", cls=None, module="a")) == []

    def test_exception_hierarchy_crosses_modules(self, tmp_path):
        write_tree(tmp_path, {
            "errors.py": """\
                class ReproError(Exception):
                    pass
                """,
            "lib.py": """\
                from errors import ReproError

                class ProbeError(ReproError, ValueError):
                    pass
                """,
        })
        hierarchy = ExceptionHierarchy(
            build_index(tmp_path, fixture_config()))
        assert "ReproError" in hierarchy.ancestors("ProbeError")
        assert "ValueError" in hierarchy.ancestors("ProbeError")
        assert hierarchy.catches("ProbeError", ["ReproError"])
        assert not hierarchy.catches("ReproError", ["ProbeError"])
        # unknown names are assumed Exception descendants, so a broad
        # handler still counts as catching them
        assert hierarchy.catches("MysteryError", ["Exception"])


# ---------------------------------------------------------------------------
# D201 seed provenance
# ---------------------------------------------------------------------------
def run_fixture(root, config, rules):
    return Analyzer(list(rules), config, root=str(root)).run()


class TestSeedProvenance:
    CONFIG = dict(seed_entry_points=["run_campaign", "Sim.simulate"])

    def test_reachable_unseeded_rng_is_found(self, tmp_path):
        write_tree(tmp_path, {
            "sim.py": """\
                import numpy as np

                def helper():
                    return np.random.normal()

                def run_campaign(n):
                    return [helper() for _ in range(n)]
                """,
        })
        config = fixture_config(**self.CONFIG)
        result = run_fixture(tmp_path, config, [SeedProvenanceRule()])
        assert [f.rule for f in result.findings] == ["D201"]
        finding = result.findings[0]
        assert finding.path == "sim.py" and finding.line == 4
        assert "run_campaign -> helper" in finding.message

    def test_unreachable_rng_is_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "sim.py": """\
                import numpy as np

                def orphan():
                    return np.random.normal()

                def run_campaign(rng, n):
                    return [rng.normal() for _ in range(n)]
                """,
        })
        config = fixture_config(**self.CONFIG)
        result = run_fixture(tmp_path, config, [SeedProvenanceRule()])
        assert result.findings == []

    def test_method_entry_and_cross_module_reach(self, tmp_path):
        write_tree(tmp_path, {
            "noise.py": """\
                import random

                def jitter():
                    return random.random()
                """,
            "sim.py": """\
                from noise import jitter

                class Sim:
                    def simulate(self):
                        return jitter()
                """,
        })
        config = fixture_config(**self.CONFIG)
        result = run_fixture(tmp_path, config, [SeedProvenanceRule()])
        assert [(f.path, f.rule) for f in result.findings] == \
            [("noise.py", "D201")]
        assert "Sim.simulate" in result.findings[0].message

    def test_suppression_tag_routes_to_suppressed(self, tmp_path):
        write_tree(tmp_path, {
            "sim.py": """\
                import numpy as np

                def run_campaign(n):
                    # repro: allow[D201] fixture exercises routing
                    return np.random.normal()
                """,
        })
        config = fixture_config(**self.CONFIG)
        result = run_fixture(tmp_path, config, [SeedProvenanceRule()])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["D201"]


# ---------------------------------------------------------------------------
# E601 exit-code contracts
# ---------------------------------------------------------------------------
class TestExitContract:
    def test_escaping_exception_is_flagged_at_raise_site(self, tmp_path):
        write_tree(tmp_path, {
            "cli.py": """\
                from lib import work

                def _cmd_go(args):
                    return work(args)
                """,
            "lib.py": """\
                def work(args):
                    if not args:
                        raise ValueError("empty")
                    return 0
                """,
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [ExitContractRule()])
        assert [(f.path, f.line, f.rule) for f in result.findings] == \
            [("lib.py", 3, "E601")]
        assert "_cmd_go" in result.findings[0].message

    def test_handled_hierarchy_is_covered(self, tmp_path):
        write_tree(tmp_path, {
            "errors.py": """\
                class ReproError(Exception):
                    exit_code = 10
                """,
            "cli.py": """\
                from lib import work

                def _cmd_go(args):
                    return work(args)
                """,
            "lib.py": """\
                from errors import ReproError

                class ProbeError(ReproError, ValueError):
                    pass

                def work(args):
                    if not args:
                        raise ProbeError("empty")
                    return 0
                """,
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [ExitContractRule()])
        assert result.findings == []

    def test_caught_exception_does_not_escape(self, tmp_path):
        write_tree(tmp_path, {
            "cli.py": """\
                from lib import work

                def _cmd_go(args):
                    try:
                        return work(args)
                    except ValueError:
                        return 1
                """,
            "lib.py": """\
                def work(args):
                    if not args:
                        raise ValueError("empty")
                    return 0
                """,
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [ExitContractRule()])
        assert result.findings == []

    def test_raw_raise_inside_cli_command_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "cli.py": """\
                def _cmd_go(args):
                    if not args:
                        raise ValueError("bad flag")
                    return 0
                """,
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [ExitContractRule()])
        assert [(f.path, f.line, f.rule) for f in result.findings] == \
            [("cli.py", 3, "E601")]
        assert "ValueError" in result.findings[0].message

    def test_exempt_names_never_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "cli.py": """\
                def _cmd_go(args):
                    raise SystemExit(2)
                """,
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [ExitContractRule()])
        assert result.findings == []


# ---------------------------------------------------------------------------
# X701 IPC hygiene
# ---------------------------------------------------------------------------
class TestIpcHygiene:
    def test_custom_class_across_boundary_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "work.py": """\
                class Payload:
                    pass

                def item(x):
                    return Payload()

                def run(xs):
                    return parallel_map(item, xs)
                """,
        })
        config = fixture_config(ipc_allowlist=[])
        result = run_fixture(tmp_path, config, [IpcHygieneRule()])
        assert [(f.path, f.line, f.rule) for f in result.findings] == \
            [("work.py", 5, "X701")]
        assert "Payload" in result.findings[0].message

    def test_allowlisted_class_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "work.py": """\
                class Payload:
                    pass

                def item(x):
                    return Payload()

                def run(xs):
                    return parallel_map(item, xs)
                """,
        })
        config = fixture_config(ipc_allowlist=["Payload"])
        result = run_fixture(tmp_path, config, [IpcHygieneRule()])
        assert result.findings == []

    def test_transitive_return_chain_is_chased(self, tmp_path):
        write_tree(tmp_path, {
            "work.py": """\
                class Payload:
                    pass

                def build():
                    return Payload()

                def item(x):
                    return build()

                def run(xs):
                    return supervised_map(item, xs)
                """,
        })
        config = fixture_config(ipc_allowlist=[])
        result = run_fixture(tmp_path, config, [IpcHygieneRule()])
        assert [(f.path, f.line) for f in result.findings] == \
            [("work.py", 5)]

    def test_json_able_returns_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "work.py": """\
                def item(x):
                    return {"value": x, "twice": 2 * x}

                def run(xs):
                    return parallel_map(item, xs)
                """,
        })
        config = fixture_config(ipc_allowlist=[])
        result = run_fixture(tmp_path, config, [IpcHygieneRule()])
        assert result.findings == []


# ---------------------------------------------------------------------------
# E000 syntax-error contract
# ---------------------------------------------------------------------------
class TestSyntaxErrorContract:
    BROKEN = "def broken(:\n    pass\n"

    def test_check_source_reports_e000(self):
        result = check_source(self.BROKEN, [SyntaxErrorRule()])
        assert [f.rule for f in result.findings] == ["E000"]
        again = check_source(self.BROKEN, [SyntaxErrorRule()])
        assert result.findings == again.findings  # deterministic

    def test_check_source_without_rule_raises(self):
        with pytest.raises(SyntaxError):
            check_source(self.BROKEN, [UnseededRngRule()])

    def test_broken_file_does_not_abort_the_run(self, tmp_path):
        write_tree(tmp_path, {
            "bad.py": self.BROKEN,
            "good.py": "import numpy as np\nx = np.random.normal()\n",
        })
        result = run_fixture(tmp_path, fixture_config(),
                             [SyntaxErrorRule(), UnseededRngRule()])
        rules = [(f.path, f.rule) for f in result.findings]
        assert ("bad.py", "E000") in rules
        assert ("good.py", "D101") in rules  # the rest still ran
        assert result.checked_files == 2

    def test_e000_position_is_stable(self, tmp_path):
        write_tree(tmp_path, {"bad.py": self.BROKEN})
        first = run_fixture(tmp_path, fixture_config(),
                            [SyntaxErrorRule()])
        second = run_fixture(tmp_path, fixture_config(),
                             [SyntaxErrorRule()])
        assert first.findings == second.findings
        assert first.findings[0].line == 1


# ---------------------------------------------------------------------------
# A405 stale suppressions
# ---------------------------------------------------------------------------
class TestUnusedSuppression:
    def test_stale_tag_is_flagged(self):
        result = check_source(
            "x = 1  # repro: allow[E304] nothing to suppress here\n",
            [ExitCodeTableRule(), UnusedSuppressionRule()])
        assert [f.rule for f in result.findings] == ["A405"]
        assert "E304" in result.findings[0].message

    def test_working_tag_is_not_stale(self):
        result = check_source(
            "import sys\n"
            "sys.exit(99)  # repro: allow[E304] fixture\n",
            [ExitCodeTableRule(), UnusedSuppressionRule()])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["E304"]

    def test_tag_for_inactive_rule_is_ignored(self):
        result = check_source(
            "x = 1  # repro: allow[D101] rule not in this run\n",
            [ExitCodeTableRule(), UnusedSuppressionRule()])
        assert result.findings == []

    def test_tag_for_unknown_rule_id_is_flagged(self):
        result = check_source(
            "x = 1  # repro: allow[Z999] no such rule\n",
            [ExitCodeTableRule(), UnusedSuppressionRule()])
        assert [f.rule for f in result.findings] == ["A405"]
        assert "Z999" in result.findings[0].message
        assert "no registered rule" in result.findings[0].message

    def test_unknown_id_is_flagged_on_a_full_run(self, tmp_path):
        write_tree(tmp_path, {
            "mod.py": "x = 1  # repro: allow[P602] rule was deleted\n"})
        result = run_fixture(tmp_path, fixture_config(),
                             [UnusedSuppressionRule()])
        assert [(f.path, f.line, f.rule) for f in result.findings] == \
            [("mod.py", 1, "A405")]

    def test_a405_is_itself_suppressible(self):
        result = check_source(
            "x = 1  # repro: allow[E304, A405] stale kept on purpose\n",
            [ExitCodeTableRule(), UnusedSuppressionRule()])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["A405"]

    def test_program_rule_suppressions_count_as_used(self, tmp_path):
        write_tree(tmp_path, {
            "sim.py": """\
                import numpy as np

                def run_campaign(n):
                    # repro: allow[D201] routed via the program pass
                    return np.random.normal()
                """,
        })
        config = fixture_config(seed_entry_points=["run_campaign"])
        result = run_fixture(
            tmp_path, config,
            [SeedProvenanceRule(), UnusedSuppressionRule()])
        assert result.findings == []  # no A405: the tag did suppress
        assert [f.rule for f in result.suppressed] == ["D201"]


# ---------------------------------------------------------------------------
# repo-level contracts
# ---------------------------------------------------------------------------
class TestRepoContracts:
    def test_new_error_classes_carry_documented_exit_codes(self):
        source = os.path.join(REPO_ROOT, "src")
        if source not in sys.path:
            sys.path.insert(0, source)
        from repro.robustness import (AssemblerError, MitigationError,
                                      ReproError, TraceCodecError)
        assert issubclass(AssemblerError, ReproError)
        assert issubclass(AssemblerError, ValueError)
        assert AssemblerError.exit_code == 20
        assert TraceCodecError.exit_code == 21
        assert MitigationError.exit_code == 22
        # the historical homes still export the same classes
        from repro.isa.assembler import AssemblerError as FromIsa
        from repro.leakage.mitigation import MitigationError as FromLeak
        assert FromIsa is AssemblerError
        assert FromLeak is MitigationError

    def test_every_public_export_resolves(self):
        source = os.path.join(REPO_ROOT, "src")
        if source not in sys.path:
            sys.path.insert(0, source)
        import importlib
        import pkgutil

        import repro
        # repro.__main__ runs the CLI on import
        names = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__,
                                                        "repro.")
            if not info.name.endswith(".__main__")]
        dangling = []
        for name in names:
            module = importlib.import_module(name)
            dangling += [f"{name}.{export}"
                         for export in getattr(module, "__all__", ())
                         if not hasattr(module, export)]
        assert dangling == []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
