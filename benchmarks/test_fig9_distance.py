"""Fig. 9 / §V-D — probe distance and the loss coefficient beta.

Moving the probe off the base position re-weights every source's coupling.
Keeping beta = 1 (the training-position assumption) mispredicts the new
signal; re-fitting the per-stage loss coefficients A -> A*beta via the
same linear regression restores the match.
"""

import numpy as np

from repro.core import EMSim, coverage_groups, fit_beta, isolation_probe
from repro.signal import normalized_rmse
from repro.hardware import HardwareDevice, ProbePosition
from repro.workloads import checksum, dot_product

OFF_CENTER = ProbePosition(x=2.5, y=1.5, height=6.5)


def test_fig9_beta_refit(bench, record):
    program = coverage_groups(group_size=160, seed=57, limit_groups=1)[0]
    fit_programs = [dot_product(8), checksum(16),
                    isolation_probe("mul", rs1_value=0xDEADBEEF,
                                    rs2_value=0x1234)]

    moved = HardwareDevice(probe=OFF_CENTER)
    # beta = 1: training-position model applied verbatim
    naive = bench.accuracy(program, device=moved)

    # re-fit per-stage beta (and the intercept it is solved with)
    # from a few measurements at the new spot
    intercept, beta = fit_beta(bench.model, moved, fit_programs)
    import copy
    adjusted_model = copy.copy(bench.model)
    adjusted_model.intercept = intercept
    adjusted_model.beta = beta
    adjusted_sim = EMSim(adjusted_model,
                         core_config=moved.core_config)
    adjusted = bench.accuracy(program, device=moved,
                              simulator=adjusted_sim)
    base = bench.accuracy(program)
    # scale-sensitive check (the paper reports correlation AND RMSE):
    measured = moved.capture_ideal(program)
    naive_signal = bench.simulator.simulate(program).signal
    adjusted_signal = adjusted_sim.simulate(program).signal
    length = min(len(measured.signal), len(naive_signal))
    rmse_naive = normalized_rmse(naive_signal[:length],
                                 measured.signal[:length])
    rmse_adjusted = normalized_rmse(adjusted_signal[:length],
                                    measured.signal[:length])

    beta_text = ", ".join(f"{stage}={value:.2f}"
                          for stage, value in sorted(beta.items()))
    lines = [
        f"probe moved from die center to ({OFF_CENTER.x}, {OFF_CENTER.y},"
        f" {OFF_CENTER.height}) cm:",
        f"  at the base position:          {base:6.1%}",
        f"  beta = 1 at the new position:  {naive:6.1%} "
        f"(Fig. 9 bottom)",
        f"  fitted beta at the new spot:   {adjusted:6.1%} "
        f"(Fig. 9 top)",
        f"  fitted per-stage beta: {beta_text}",
        f"  fitted intercept: {intercept:.4f} (training "
        f"position: {bench.model.intercept:.4f})",
        f"  normalized RMSE: beta=1 {rmse_naive:.2f}  ->  "
        f"fitted beta {rmse_adjusted:.2f}",
        "",
        "paper shape: adjusting beta is crucial to explain the antenna",
        "location -> " +
        ("reproduced" if adjusted > naive else "NOT reproduced"),
    ]
    record("fig9_distance", "\n".join(lines))
    assert adjusted >= naive
    assert rmse_adjusted < rmse_naive - 0.1
    # the fitted betas really differ across stages (unequal re-weighting)
    values = np.array(list(beta.values()))
    assert values.max() - values.min() > 0.02
