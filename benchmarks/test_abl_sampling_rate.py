"""§V-A ablation — reduced sampling rates keep the accuracy.

The paper: "similar accuracy can be achieved with much lower
sampling-rate (about 200 MSa/s in our measurements)" — i.e. 4 samples per
50 MHz clock cycle instead of the scope's 200.  The experiment sweeps the
acquisition rate of the reference-capture chain and measures the match to
the full-rate reference.
"""

from repro.core import isolation_probe
from repro.hardware import HardwareDevice
from repro.signal import ScopeConfig, simulation_accuracy

RATES = (40.0, 12.0, 6.0, 4.0, 2.0)   # scope samples per clock cycle


def test_abl_sampling_rate(bench, record):
    probe = isolation_probe("mul", rs1_value=0xDEADBEEF,
                            rs2_value=0x12345678)

    ideal = bench.device.capture_ideal(probe)
    scores = {}
    for rate in RATES:
        device = HardwareDevice(
            scope_config=ScopeConfig(samples_per_cycle=rate,
                                     noise_rms=0.05),
            seed=int(1000 * rate))
        reference = device.capture_reference(probe, repetitions=250)
        scores[rate] = simulation_accuracy(ideal.signal,
                                           reference.signal,
                                           bench.spc)

    lines = ["reference quality vs scope sampling rate (modulo-folded,",
             "250 repetitions; rates in samples per clock cycle):"]
    for rate, score in scores.items():
        mss = rate * 50  # at the paper's 50 MHz clock
        lines.append(f"  {rate:5.1f} S/cycle (~{mss:5.0f} MSa/s): "
                     f"{score:6.1%}")
    lines.append("")
    lines.append("paper shape: ~4 S/cycle (200 MSa/s) is as good as the "
                 "scope's full rate -> " +
                 ("reproduced"
                  if scores[4.0] > scores[max(RATES)] - 0.03
                  else "NOT reproduced"))
    record("abl_sampling_rate", "\n".join(lines))

    assert scores[4.0] > scores[max(RATES)] - 0.03
    assert scores[4.0] > 0.9


def test_abl_repetitions_tradeoff(bench, record):
    """More repetitions substitute for sampling rate (modulo averaging
    interleaves the asynchronous grids)."""
    probe = isolation_probe("add", rs1_value=0x0F0F0F0F)

    ideal = bench.device.capture_ideal(probe)
    scores = {}
    for repetitions in (20, 80, 320):
        device = HardwareDevice(
            scope_config=ScopeConfig(samples_per_cycle=5.0,
                                     noise_rms=0.1),
            seed=repetitions)
        reference = device.capture_reference(probe,
                                             repetitions=repetitions)
        scores[repetitions] = simulation_accuracy(
            ideal.signal, reference.signal, bench.spc)

    lines = ["reference quality vs repetition count (5 S/cycle scope):"]
    for repetitions, score in scores.items():
        lines.append(f"  {repetitions:4d} repetitions: {score:6.1%}")
    record("abl_repetitions", "\n".join(lines))
    assert scores[320] >= scores[20]
    assert scores[320] > 0.9
