"""§IV ablation — data forwarding has no significant signal effect.

The paper "tested the effect of other micro-architectural events such as
data-forwarding on the signal and did not observe any significant
difference in the presence and/or absence of them": forwarding changes
*which cycles* things happen in (more stalls without it), but EMSim's
per-stage model tracks either configuration equally well.
"""

from dataclasses import replace


from repro.core import EMSim
from repro.hardware import HardwareDevice
from repro.workloads import RandomProgramBuilder


def test_abl_forwarding(bench, record):
    program = RandomProgramBuilder(seed=88).program(150)

    results = {}
    for forwarding in (True, False):
        config = replace(bench.device.core_config,
                         forwarding=forwarding)
        device = HardwareDevice(core_config=config)
        simulator = EMSim(bench.model, core_config=config)
        trace = simulator.run_trace(program)
        results[forwarding] = dict(
            accuracy=bench.accuracy(program, device=device,
                                    simulator=simulator),
            cycles=trace.num_cycles)

    with_fw = results[True]
    without_fw = results[False]
    spread = abs(with_fw["accuracy"] - without_fw["accuracy"])
    lines = [
        "model trained on the forwarding core, applied to both designs:",
        f"  forwarding on:  accuracy {with_fw['accuracy']:6.1%} "
        f"({with_fw['cycles']} cycles)",
        f"  forwarding off: accuracy {without_fw['accuracy']:6.1%} "
        f"({without_fw['cycles']} cycles)",
        "",
        f"accuracy difference: {spread:.2%}",
        "paper shape: forwarding presence/absence has no significant "
        "signal-model effect -> " +
        ("reproduced" if spread < 0.02 else "NOT reproduced"),
    ]
    record("abl_forwarding", "\n".join(lines))
    assert spread < 0.02
    assert without_fw["cycles"] > with_fw["cycles"]  # timing does differ
