"""Fig. 7 — modeling branch mispredictions vs assuming perfect fetch.

A mispredicted branch flushes two instructions; the injected bubbles
change the signal for those cycles.  Without modeling mispredictions the
simulated pipeline never flushes, so its timeline and bubble pattern
deviate from the real signal.
"""

from repro.isa import assemble
from repro.signal import simulation_accuracy

TAKEN_BRANCH = """
    li   t0, 3
    li   t1, 0
loop:
    addi t1, t1, 1
    xori t2, t1, 0x55
    addi t0, t0, -1
    bnez t0, loop      # taken twice: first encounter mispredicts
    nop
    nop
    nop
    nop
    ebreak
"""


def test_fig7_misprediction_modeling(bench, record):
    program = assemble(TAKEN_BRANCH, name="mispredict_demo")

    spc = bench.spc
    measured = bench.device.capture_ideal(program)
    modeled = bench.simulator.simulate(program)
    oracle = bench.simulator.with_switches(model_mispredicts=False) \
        .simulate(program)
    length = min(len(measured.signal), len(modeled.signal))
    length_oracle = min(len(measured.signal), len(oracle.signal))
    results = {
        "measured_cycles": measured.num_cycles,
        "measured_flushes": len(measured.trace.flushes),
        "modeled_cycles": modeled.num_cycles,
        "modeled_flushes": len(modeled.trace.flushes),
        "oracle_cycles": oracle.num_cycles,
        "oracle_flushes": len(oracle.trace.flushes),
        "modeled": simulation_accuracy(modeled.signal[:length],
                                       measured.signal[:length], spc),
        "ignored": simulation_accuracy(
            oracle.signal[:length_oracle],
            measured.signal[:length_oracle], spc),
    }

    lines = [
        "loop with mispredicted taken branch (paper Fig. 7):",
        f"  real hardware: {results['measured_cycles']} cycles, "
        f"{results['measured_flushes']} flushes",
        f"  modeling mispredictions:  {results['modeled']:6.1%} "
        f"({results['modeled_cycles']} cycles, "
        f"{results['modeled_flushes']} flushes)",
        f"  perfect-fetch assumption: {results['ignored']:6.1%} "
        f"({results['oracle_cycles']} cycles, "
        f"{results['oracle_flushes']} flushes)",
        "",
        "paper shape: the flush bubbles visibly change the signal and",
        "must be modeled -> " +
        ("reproduced" if results["ignored"] < results["modeled"]
         else "NOT reproduced"),
    ]
    record("fig7_mispredict", "\n".join(lines))
    assert results["measured_flushes"] >= 1
    assert results["modeled_flushes"] == results["measured_flushes"]
    assert results["oracle_flushes"] == 0
    assert results["modeled"] > results["ignored"] + 0.05
