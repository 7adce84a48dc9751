"""Table II — SAVAT matrix for {LDM, LDC, NOP, ADD, MUL, DIV} pairs.

The paper computes the SAVAT metric (spectral spike energy of an A/B
alternation microbenchmark) from real measurements (R) and from EMSim
signals (S) and shows S closely tracks R for every pair.
"""

import numpy as np

from repro.leakage import (SAVAT_INSTRUCTIONS, format_matrix, savat_matrix)


def test_tab2_savat_matrix(bench, record):
    spc = bench.spc

    def real_source(program):
        measurement = bench.device.capture_ideal(program)
        return measurement.signal, measurement.num_cycles

    def sim_source(program):
        result = bench.simulator.simulate(program)
        return result.signal, result.num_cycles

    real = savat_matrix(real_source, spc)
    sim = savat_matrix(sim_source, spc)

    lines = ["SAVAT, real measurements (R):", format_matrix(real), "",
             "SAVAT, EMSim simulation (S):", format_matrix(sim), ""]

    real_values = np.array([real[key] for key in sorted(real)])
    sim_values = np.array([sim[key] for key in sorted(sim)])
    correlation = float(np.corrcoef(real_values, sim_values)[0, 1])
    lines.append(f"R-vs-S correlation over all 36 pairs: "
                 f"{correlation:.3f}")

    # structural checks mirroring Table II
    diag = [real[(kind, kind)] for kind in SAVAT_INSTRUCTIONS]
    off_diag_mean = float(np.mean(
        [value for key, value in real.items() if key[0] != key[1]]))
    lines.append(f"diagonal (A==B) mean: {np.mean(diag):.3f}  vs "
                 f"off-diagonal mean: {off_diag_mean:.3f}")
    lines.append("")
    lines.append("paper shape: simulated values highly matched with "
                 "real -> " + ("reproduced" if correlation > 0.85
                               else "NOT reproduced"))
    lines.append("deviation: the paper's LDM rows dominate its Table II "
                 "(loud DRAM bus);")
    lines.append("our synthetic memory radiates less during miss stalls, "
                 "so load-hit rows lead here.")
    record("tab2_savat", "\n".join(lines))

    assert correlation > 0.85
    # the diagonal is near-silent (A vs A gives no alternation)
    assert np.mean(diag) < 0.2 * off_diag_mean
    # symmetric-ish: SAVAT(A,B) ~ SAVAT(B,A)
    asym = [abs(real[(a, b)] - real[(b, a)])
            for a in SAVAT_INSTRUCTIONS for b in SAVAT_INSTRUCTIONS
            if a < b]
    scale = max(real.values())
    assert max(asym) < 0.5 * scale