"""Fig. 6 — modeling cache misses vs assuming every access hits.

A load that misses stalls for two extra cycles (three stall cycles in
total); EMSim detects this from its cache model.  Without cache modeling
the simulated timeline is shorter and the signal drifts out of phase from
the miss onward.
"""

from repro.core import double_load_probe
from repro.signal import simulation_accuracy


def _missing_loads_program():
    """Loads striding by one cache line: every access misses.

    Interleaved ALU work makes the waveform distinctive, so the timeline
    shift of the all-hits assumption (2 cycles lost per miss) destroys
    the alignment — the paper's Fig. 6 bottom-left deviation.
    """
    from repro.isa import Instruction
    from repro.workloads import wrap_program
    code = []
    for index in range(12):
        code.append(Instruction("lw", rd=5, rs1=3, imm=32 * index))
        code.append(Instruction("xor", rd=6, rs1=6, rs2=5))
        code.append(Instruction("slli", rd=7, rs1=6, imm=3))
    return wrap_program(code, name="stride_misses")


def test_fig6_cache_miss_modeling(bench, record):
    miss_probe = _missing_loads_program()
    hit_probe = double_load_probe("lw", offset=256)

    spc = bench.spc
    no_cache = bench.simulator.with_switches(model_cache=False)
    results = {}
    for label, probe in (("miss", miss_probe), ("hit", hit_probe)):
        measured = bench.device.capture_ideal(probe)
        modeled = bench.simulator.simulate(probe)
        ignored = no_cache.simulate(probe)
        length = min(len(measured.signal), len(modeled.signal))
        length_ignored = min(len(measured.signal),
                             len(ignored.signal))
        results[label] = {
            "measured_cycles": measured.num_cycles,
            "modeled_cycles": modeled.num_cycles,
            "ignored_cycles": ignored.num_cycles,
            "modeled": simulation_accuracy(
                modeled.signal[:length], measured.signal[:length],
                spc),
            "ignored": simulation_accuracy(
                ignored.signal[:length_ignored],
                measured.signal[:length_ignored], spc),
        }

    miss = results["miss"]
    hit = results["hit"]
    lines = [
        "LD with a cache miss (left) and a cache hit (right), Fig. 6:",
        f"  measured timeline: miss = {miss['measured_cycles']} cycles, "
        f"hit probe = {hit['measured_cycles']} cycles",
        f"  modeling the cache:  miss {miss['modeled']:6.1%}   "
        f"hit {hit['modeled']:6.1%}",
        f"  all-hits assumption: miss {miss['ignored']:6.1%}   "
        f"hit {hit['ignored']:6.1%}",
        f"  (all-hits timeline for the miss probe: "
        f"{miss['ignored_cycles']} vs real {miss['measured_cycles']} "
        f"cycles)",
        "",
        "paper shape: without modeling cache misses the simulation",
        "deviates from the original signal -> " +
        ("reproduced" if miss["ignored"] < miss["modeled"]
         else "NOT reproduced"),
    ]
    record("fig6_cache", "\n".join(lines))
    assert miss["modeled"] > miss["ignored"] + 0.05
    assert miss["ignored_cycles"] < miss["measured_cycles"]
    # the hit probe also contains the initial (line-warming) miss, so the
    # ablation hurts it too — but far less than the all-miss program
    assert hit["modeled"] >= hit["ignored"]
    assert (miss["modeled"] - miss["ignored"]) > \
        (hit["modeled"] - hit["ignored"])
