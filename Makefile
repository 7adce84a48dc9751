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
# replay, ~7 s), then Figs. 5-7 (stalls, cache misses, mispredictions),
# Fig. 9 (the trained model against a copy with a refit intercept and
# beta, simulating the same programs: the end-to-end gate on the key of
# EMSim's amplitude memo), Table II (the SAVAT matrix, measured and
# simulated), the forwarding and predictor ablations (the core with
# forwarding off and under each of its three predictors), the
# out-of-order extension, Fig. 11 (the buggy multiplier through the
# core's ALU-fault hook) and the trainer's own figures (Fig. 1's kernel
# fit, Fig. 2's per-stage sources, Fig. 3's activity factors, Fig. 4's
# MISO fit, the step-wise pruning ablation, Table I's clusters and the
# §V-C board retraining) in one pytest call, so they share one ~1.3 s
# model fit (~9 s in all).  Then the robustness recovery bench (~7 s):
# it trains through reference captures at 0, 5 and 20 % injected
# faults, so it runs the repetition screen's fold fallback and its
# ragged-repetition path.  They rewrite the nineteen PAPER_RESULTS
# files, and the last step fails on any difference from the committed
# (or staged) ones in a git work tree; elsewhere it is skipped.  So a
# stall, cache-miss, misprediction, probe-distance, AES TVLA, SAVAT,
# forwarding, predictor, out-of-order, multiplier-defect,
# fault-recovery, kernel, per-stage, activity-factor, MISO, pruning,
# clustering or board result that moved fails the check.
PAPER_RESULTS = $(addprefix benchmarks/results/,fig5_stall.txt \
	fig6_cache.txt fig7_mispredict.txt fig9_distance.txt fig10_tvla.txt \
	tab2_savat.txt abl_forwarding.txt abl_predictors.txt ext_ooo.txt \
	fig11_debugging.txt robustness_recovery.txt fig1_kernels.txt \
	fig2_per_stage.txt fig3_activity_factor.txt fig4_miso.txt \
	fig4_miso_pairs.txt abl_stepwise.txt tab1_clusters.txt \
	sec5c_boards.txt)

check: test lint
	$(PYTHON) -m pytest bench/test_bench.py -q
	$(PYTHON) -m bench --quick
	cd benchmarks && $(PYTHON) -m pytest test_fig10_tvla.py \
		--benchmark-disable -q
	cd benchmarks && $(PYTHON) -m pytest test_fig5_stall.py \
		test_fig6_cache.py test_fig7_mispredict.py test_fig9_distance.py \
		test_tab2_savat.py test_abl_forwarding.py test_abl_predictors.py \
		test_ext_ooo.py test_fig11_debugging.py test_fig1_kernels.py \
		test_fig2_per_stage.py test_fig3_activity_factor.py \
		test_fig4_miso.py test_abl_stepwise.py test_tab1_clusters.py \
		test_sec5c_boards.py --benchmark-disable -q
	cd benchmarks && $(PYTHON) -m pytest test_robustness_recovery.py \
		--benchmark-disable -q
	if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then \
		git diff --exit-code -- $(PAPER_RESULTS); \
	else echo "not a git work tree: result drift not checked"; fi

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
