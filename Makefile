# Development gates. `make check` is the one-stop pre-commit target.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test lint lint-cold bench bench-quick

check: test lint

test:
	$(PYTHON) -m pytest -x -q

# repro-lint: AST-based invariant analyzer (determinism, numerical
# safety, error contracts, API hygiene, whole-program dataflow —
# including the docstring and docs gates that used to be separate
# scripts).  Zero unsuppressed findings is the bar; see
# docs/static-analysis.md.  Incremental by default (per-module
# summaries cached under .repro-lint-cache/); `lint-cold` forces a
# full from-scratch analysis with guaranteed-identical findings.
lint:
	$(PYTHON) -m tools.analysis

lint-cold:
	$(PYTHON) -m tools.analysis --no-cache

# Not part of `check` (runs several minutes).  `python -m bench` is the
# benchmark of record: the four paper workloads (campaign, tvla-aes,
# savat, train) end to end with per-layer tracing (bench/README.md).
# The pytest benchmarks time the supervised-campaign survival/resume
# (BENCH_resume.json), the run-record overhead (BENCH_observability.json)
# and incremental lint (BENCH_lint.json) under benchmarks/results/.
BENCH_TESTS = test_robustness_resume.py test_perf_observability.py \
	test_perf_lint.py

bench:
	$(PYTHON) -m bench
	cd benchmarks && $(PYTHON) -m pytest $(BENCH_TESTS) -x -q

# Smoke-size runs of the same (about a minute); the pytest benchmarks
# write BENCH_*.quick.json so the committed full-size artifacts are
# never clobbered.
bench-quick:
	$(PYTHON) -m bench --quick
	cd benchmarks && REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest \
		$(BENCH_TESTS) -x -q
