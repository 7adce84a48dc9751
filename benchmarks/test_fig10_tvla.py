"""Fig. 10 — TVLA leakage assessment of AES-128, measured vs simulated.

The paper runs AES-128 on the core, computes the fixed-vs-random TVLA on
the measured signal and on EMSim's simulated signal, and finds the
simulated assessment "highly matched with the real measurement and
follows the same pattern (and values)".
"""

import numpy as np

from repro.leakage import DEFAULT_KEY, aes_program, tvla

ROUNDS = 10
NUM_TRACES = 24
NOISE_RMS = 0.08


def test_fig10_aes_tvla(bench, record):
    spc = bench.spc
    noise = np.random.default_rng(404)

    def real(plaintext):
        program = aes_program(DEFAULT_KEY, plaintext, rounds=ROUNDS)
        return bench.device.capture_single(
            program, noise_rms=NOISE_RMS).signal

    def simulated(plaintext):
        program = aes_program(DEFAULT_KEY, plaintext, rounds=ROUNDS)
        signal = bench.simulator.simulate(program).signal
        return signal + noise.normal(0, NOISE_RMS,
                                     size=signal.shape)

    results = {}
    for label, source in (("real", real), ("sim", simulated)):
        rng = np.random.default_rng(7)
        fixed = [source(list(range(16))) for _ in range(NUM_TRACES)]
        rand = [source(list(rng.integers(0, 256, 16)))
                for _ in range(NUM_TRACES)]
        results[label] = tvla(fixed, rand)
    real_profile = results["real"].per_cycle_max(spc)
    sim_profile = results["sim"].per_cycle_max(spc)
    length = min(len(real_profile), len(sim_profile))
    correlation = float(np.corrcoef(real_profile[:length],
                                    sim_profile[:length])[0, 1])

    lines = [f"AES-128 ({ROUNDS} rounds, {NUM_TRACES}+{NUM_TRACES} "
             "traces), fixed-vs-random TVLA:"]
    for label, result in results.items():
        profile = ", ".join(f"{value:5.1f}"
                            for value in result.phase_profile(spc))
        lines.append(f"  {label:>4s}: max|t| = {result.max_abs_t:6.1f}  "
                     f"leaks = {result.leaks}  "
                     f"time profile = [{profile}]")
    lines.append("")
    lines.append(f"leakage-profile correlation (real vs simulated): "
                 f"{correlation:.2f}")
    lines.append("paper shape: the simulated TVLA follows the same "
                 "pattern and values -> " +
                 ("reproduced" if correlation > 0.5 and
                  results["real"].leaks == results["sim"].leaks
                  else "NOT reproduced"))
    record("fig10_tvla", "\n".join(lines))

    assert results["real"].leaks and results["sim"].leaks
    assert correlation > 0.5
    assert abs(results["real"].leaky_fraction -
               results["sim"].leaky_fraction) < 0.2
