"""§V-B — manufacturing variability across physical board instances.

The paper measures three physical instances of the DE0-CV: signals are
slightly shifted (crystal tolerance shifts the actual clock), but a model
trained on instance #1 stays accurate on the others — no per-unit
retraining needed.
"""

from repro.core import coverage_groups
from repro.hardware import DE0_CV, DeviceInstance, HardwareDevice


def test_sec5b_instance_robustness(bench, record):
    program = coverage_groups(group_size=192, seed=55, limit_groups=1)[0]

    results = {}
    for instance_id in (0, 1, 2):
        device = HardwareDevice(
            instance=DeviceInstance(board=DE0_CV,
                                    instance_id=instance_id))
        results[instance_id] = dict(
            accuracy=bench.accuracy(program, device=device),
            clock_ppm=device.instance.clock_ppm,
            gain=device.instance.gain_jitter)

    lines = ["model trained on board #0, evaluated on three instances:"]
    for instance_id, info in results.items():
        lines.append(f"  board #{instance_id}: accuracy "
                     f"{info['accuracy']:6.1%}  "
                     f"(clock {info['clock_ppm']:+6.1f} ppm, "
                     f"gain x{info['gain']:.3f})")
    base = results[0]["accuracy"]
    worst_drop = base - min(info["accuracy"]
                            for info in results.values())
    lines.append("")
    lines.append(f"worst accuracy drop vs training instance: "
                 f"{worst_drop:.2%}")
    lines.append("paper shape: the clock shift has no statistically "
                 "significant impact -> " +
                 ("reproduced" if worst_drop < 0.02 else
                  "NOT reproduced"))
    record("sec5b_manufacturing", "\n".join(lines))
    assert worst_drop < 0.02


def test_sec5b_reference_capture_shift(bench, record):
    """Through the real acquisition chain, instance clock offsets appear
    as a slight per-cycle stretch — visible but harmless."""
    from repro.core import isolation_probe
    from repro.signal import simulation_accuracy

    probe = isolation_probe("add", rs1_value=0x0F0F0F0F)

    base = HardwareDevice(instance=DeviceInstance(DE0_CV, 0))
    other = HardwareDevice(instance=DeviceInstance(DE0_CV, 2))
    reference_base = base.capture_reference(probe, repetitions=120)
    reference_other = other.capture_reference(probe, repetitions=120)
    similarity = simulation_accuracy(reference_base.signal,
                                     reference_other.signal, bench.spc)

    record("sec5b_reference_shift",
           f"modulo-averaged references of instance #0 vs #2: "
           f"{similarity:.1%} per-cycle similarity\n"
           "(the residual difference is the paper's 'slightly shifted' "
           "clock)")
    assert similarity > 0.9
