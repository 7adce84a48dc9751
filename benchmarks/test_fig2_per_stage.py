"""Fig. 2 — per-stage sources vs a single averaged source.

An instruction progresses through the pipeline (NOP -> inst -> NOP);
modeling each pipeline stage as its own EM source tracks the signal,
while using one "average" amplitude for all stages misses the per-stage
structure.  Following the paper's figure, the comparison is over the
cycles in which the instruction is in flight.
"""

import numpy as np

from repro.core import isolation_probe, make_simulator, \
    probe_instruction_seq
from repro.signal import simulation_accuracy

PROBES = {
    "add": dict(rs1_value=0x0F0F0F0F, rs2_value=0x12345678),
    "mul": dict(rs1_value=0xDEADBEEF, rs2_value=0x13579BDF),
    "lw": dict(mem_offset=128),
    "sw": dict(rs2_value=0xA5A5A5A5, mem_offset=64),
}


def _transit_window(program, trace):
    """Cycle span while the probed instruction occupies any stage."""
    seq = probe_instruction_seq(program)
    cycles = [cycle for stage in ("F", "D", "E", "M", "W")
              for cycle in trace.cycles_of(seq, stage)]
    return min(cycles), max(cycles) + 1


def test_fig2_per_stage_vs_single_source(bench, record):
    single_simulator = make_simulator(
        bench.model, "single-source",
        core_config=bench.device.core_config)
    spc = bench.spc
    rows = {}
    for name, operands in PROBES.items():
        probe = isolation_probe(name, **operands)
        measured = bench.device.capture_ideal(probe)
        start, stop = _transit_window(probe, measured.trace)
        window = slice(start * spc, stop * spc)
        scores = {}
        for label, simulator in (("per-stage", bench.simulator),
                                 ("single", single_simulator)):
            simulated = simulator.simulate(probe)
            scores[label] = simulation_accuracy(
                simulated.signal[window], measured.signal[window],
                spc)
        rows[name] = scores

    lines = ["NOP -> inst -> NOP probes, accuracy over the instruction's",
             "pipeline transit (paper Fig. 2):",
             f"  {'inst':<6s} {'per-stage':>10s} {'single-source':>14s}"]
    for name, scores in rows.items():
        lines.append(f"  {name:<6s} {scores['per-stage']:>10.1%} "
                     f"{scores['single']:>14.1%}")
    mean_per_stage = float(np.mean([s["per-stage"]
                                    for s in rows.values()]))
    mean_single = float(np.mean([s["single"] for s in rows.values()]))
    lines.append("")
    lines.append(f"  mean:  per-stage {mean_per_stage:.1%} vs "
                 f"single-source {mean_single:.1%}")
    lines.append("paper shape: single-source causes significant "
                 "inaccuracies -> " +
                 ("reproduced" if mean_single < mean_per_stage
                  else "NOT reproduced"))
    record("fig2_per_stage", "\n".join(lines))
    assert mean_per_stage > mean_single
    # the memory instructions expose the biggest single-source error
    assert rows["lw"]["single"] < rows["lw"]["per-stage"]
