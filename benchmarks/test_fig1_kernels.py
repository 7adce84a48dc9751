"""Fig. 1 — signal reconstruction with rect / exponential / damped-sine.

Paper claim: reconstructing the measured waveform from per-cycle samples
with the damped-sinusoid f(t) = sin(2*pi*t/T0) e^(-theta t) (Eq. 5) fits the
real signal far better than zero-order hold (Eq. 2) or a plain exponential
(Eq. 3).
"""


from repro.signal import (DampedSineKernel, ExpKernel, RectKernel,
                          estimate_cycle_amplitudes, reconstruct,
                          simulation_accuracy)
from repro.workloads import checksum


def test_fig1_kernel_comparison(bench, record):
    measurement = bench.device.capture_ideal(checksum(24))
    spc = bench.spc
    fitted = bench.model.config.kernel
    kernels = {
        "rect (ZOH, Eq. 2)": RectKernel(),
        "exponential (Eq. 3)": ExpKernel(theta=fitted.theta),
        "damped sine (Eq. 5)": DampedSineKernel(t0=fitted.t0,
                                                theta=fitted.theta),
    }
    scores = {}
    for name, kernel in kernels.items():
        amplitudes = estimate_cycle_amplitudes(measurement.signal,
                                               kernel, spc)
        resynthesized = reconstruct(amplitudes, kernel, spc)
        scores[name] = simulation_accuracy(resynthesized,
                                           measurement.signal, spc)

    lines = ["reconstruction fit to the measured signal "
             "(per-cycle similarity):"]
    for name, score in scores.items():
        lines.append(f"  {name:<22s} {score:6.1%}")
    lines.append("")
    lines.append("paper shape: damped sine best, rect worst  ->  "
                 f"reproduced: {max(scores, key=scores.get)} best")
    record("fig1_kernels", "\n".join(lines))

    assert scores["damped sine (Eq. 5)"] > scores["exponential (Eq. 3)"]
    assert scores["damped sine (Eq. 5)"] > scores["rect (ZOH, Eq. 2)"]
