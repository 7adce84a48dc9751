# Development gates. `make check` is the one-stop pre-commit target.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test lint bench bench-quick

# Tier-1 tests, repro-lint, then the benchmark harness's self-tests:
# bench/test_bench.py sits outside pytest's testpaths, and it fails when
# a callable the traced pass wraps is renamed or deleted.  Then the
# benchmark's smoke run (~20 s): `python -m bench --quick` checks every
# workload's outputs against bench/golden.json, so a change that moves a
# trained model, a TVLA t statistic or a SAVAT entry fails here.  Last, the
# paper-shape benches: Fig. 10 (AES TVLA through EMSim's schedule
# replay, ~7 s), then Figs. 5-7 (stalls, cache misses, mispredictions)
# and Table II (the SAVAT matrix, measured and simulated) in one pytest
# call, so they share one ~1.3 s model fit (~3.5 s for the three
# figures, ~1 s for the table).  Then the robustness recovery bench
# (~7 s): it trains through reference captures at 0, 5 and 20 %
# injected faults, so it runs the repetition screen's fold fallback and
# its ragged-repetition path.  They rewrite
# benchmarks/results/fig{5_stall,6_cache,7_mispredict,10_tvla}.txt,
# tab2_savat.txt and robustness_recovery.txt, so a changed result shows
# up in `git status`.
check: test lint
	$(PYTHON) -m pytest bench/test_bench.py -q
	$(PYTHON) -m bench --quick
	cd benchmarks && $(PYTHON) -m pytest test_fig10_tvla.py \
		--benchmark-disable -q
	cd benchmarks && $(PYTHON) -m pytest test_fig5_stall.py \
		test_fig6_cache.py test_fig7_mispredict.py test_tab2_savat.py \
		--benchmark-disable -q
	cd benchmarks && $(PYTHON) -m pytest test_robustness_recovery.py \
		--benchmark-disable -q

test:
	$(PYTHON) -m pytest -x -q

# repro-lint: AST-based invariant analyzer (determinism, numerical
# safety, error contracts, API hygiene, whole-program dataflow).  One
# cold pass over src/ and tools/; zero unsuppressed findings is the bar.
# See docs/static-analysis.md.
lint:
	$(PYTHON) -m tools.analysis

# Not part of `check` (runs several minutes).  `python -m bench` is the
# benchmark of record: the four paper workloads (campaign, tvla-aes,
# savat, train) end to end with per-layer tracing (bench/README.md).
# The pytest benchmarks time the supervised-campaign survival/resume
# (BENCH_resume.json) and the run-record overhead
# (BENCH_observability.json) under benchmarks/results/.
BENCH_TESTS = test_robustness_resume.py test_perf_observability.py

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
