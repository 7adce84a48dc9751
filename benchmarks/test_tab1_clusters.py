"""Table I — clustering the RV32IM ISA into 7 EM-signature clusters.

Hierarchical agglomerative clustering with a cross-correlation distance
over the NOP -> inst -> NOP signature waveforms (the signal during the
instruction's pipeline transit).  The paper finds 7 clusters — ALU, Shift,
MUL/DIV, Load(memory), Store, Cache(load-hit), Branch — mirroring the
instructions' microarchitectural behaviour, which cuts model building from
~300M to ~16k measurements.

Note: in the paper's core MUL and DIV share one multi-cycle unit and land
in one cluster; our default core gives DIV a longer latency, so the probes
here run on a core configured with equal MUL/DIV latency to match the
paper's design point.
"""

from dataclasses import replace


from repro.core import (all_combinations, cluster_instruction_signatures,
                        double_load_probe, isolation_probe,
                        probe_instruction_seq, warmed_branch_probe)
from repro.hardware import HardwareDevice

# shared small operand patterns ("when the operands are similar"):
# signatures are concatenated over a few patterns so value-specific
# quirks average out and the instruction *type* dominates the distance;
# rs1 < rs2 in every set, so the probed branches (beq/bge/bgeu) resolve
# not-taken uniformly — the cluster reflects the branch *unit*, not the
# outcome-dependent fetch redirect
OPERAND_SETS = (dict(rs1_value=1, rs2_value=2),
                dict(rs1_value=3, rs2_value=5),
                dict(rs1_value=11, rs2_value=13))

PROBED = {
    "alu": ("add", "sub", "xor", "or", "and", "slt", "addi", "xori"),
    "shift": ("sll", "srl", "sra", "slli", "srli"),
    "muldiv": ("mul", "mulh", "div", "rem"),
    "load": ("lw", "lh", "lb", "lbu"),
    "store": ("sw", "sh", "sb"),
    "branch": ("beq", "bge", "bgeu"),
}

WINDOW_CYCLES = 14


_NOP_REFERENCE = {}


def _nop_reference(device, spc):
    """Steady NOP-flow waveform window used as the common baseline."""
    key = id(device)
    if key not in _NOP_REFERENCE:
        from repro.workloads import nop_padded
        program = nop_padded([], before=40, after=4)
        measurement = device.capture_ideal(program)
        _NOP_REFERENCE[key] = measurement.signal
    return _NOP_REFERENCE[key]


def _transit_signature(device, program, name, occurrence, spc):
    """Baseline-subtracted signal slice while the instruction transits.

    The window anchors on the ``occurrence``-th *active* Fetch of the
    named instruction (robust to squashed wrong-path fetches shifting
    dynamic sequence numbers).  Subtracting the steady NOP-flow waveform
    leaves only the instruction-specific emission, so the clustering
    distance is not dominated by the shared pipeline background.
    """
    measurement = device.capture_ideal(program)
    fetches = [cycle for cycle, occ
               in enumerate(measurement.trace.occupancy["F"])
               if occ.active and occ.instr is not None
               and occ.instr.name == name]
    start = fetches[occurrence]
    window = measurement.signal[start * spc:
                                (start + WINDOW_CYCLES) * spc]
    reference = _nop_reference(device, spc)[start * spc:
                                            (start + WINDOW_CYCLES) * spc]
    # a probe near the end of its program yields a short window; compare
    # only the overlapping part
    length = min(len(window), len(reference))
    return window[:length] - reference[:length]


def test_tab1_isa_clusters(bench, record):
    config = replace(bench.device.core_config, div_latency=3)
    device = HardwareDevice(core_config=config)
    spc = bench.spc

    import numpy as np

    signatures = {}
    for family, names in PROBED.items():
        for name in names:
            parts = []
            for operands in OPERAND_SETS:
                if family == "branch":
                    # measure the second, predictor-warmed instance
                    probe = warmed_branch_probe(name, **operands)
                    extra = 1
                else:
                    probe = isolation_probe(name, **operands)
                    extra = 0
                # skip same-mnemonic instructions in the operand
                # setup (e.g. the li-expansion addi/lui)
                seq = probe_instruction_seq(probe)
                occurrence = extra + sum(
                    1 for instr in probe.instructions[:seq]
                    if instr.name == name)
                parts.append(_transit_signature(device, probe, name,
                                                occurrence, spc))
            signatures[name] = np.concatenate(parts)
    # the "Cache" cluster: loads that hit (second access of a pair)
    for name in ("lw", "lh", "lb"):
        parts = []
        for offset in (0, 64, 224):
            probe = double_load_probe(name, offset=offset)
            parts.append(_transit_signature(device, probe, name,
                                            1, spc))  # second load
        signatures[f"{name}$hit"] = np.concatenate(parts)
    result = cluster_instruction_signatures(signatures, num_clusters=7)

    lines = ["hierarchical clustering of instruction EM signatures:",
             result.table(), "",
             f"clusters found: {result.num_clusters} "
             "(paper Table I: 7)"]

    # hardware-distinct families must not be split across clusters
    violations = []
    for family in ("muldiv", "load", "store", "branch"):
        labels = {result.labels[name] for name in PROBED[family]}
        if len(labels) != 1:
            violations.append(family)
    hit_labels = {result.labels[f"{name}$hit"]
                  for name in ("lw", "lh", "lb")}
    if len(hit_labels) != 1:
        violations.append("cache")
    lines.append("hardware-distinct families intact: " +
                 ("MUL/DIV, Load, Store, Cache, Branch"
                  if not violations else f"violations: {violations}"))
    alu_cluster = result.labels["add"]
    shift_together = result.labels["sll"] == alu_cluster
    lines.append("deviation vs Table I: our emitter's ALU and shifter "
                 "signatures are close enough to share a cluster"
                 if shift_together else
                 "ALU and Shift separate as in Table I")
    lines.append("")
    lines.append(f"measurement reduction: {len(all_combinations())} "
                 "combinations of 7 representatives instead of ~3e8 "
                 "(paper: 300M -> ~16k)")
    record("tab1_clusters", "\n".join(lines))

    assert result.num_clusters == 7
    assert not violations
    # loads that hit the cache must cluster apart from loads that miss
    assert result.labels["lw$hit"] != result.labels["lw"]
    # ...and apart from stores and ALU operations
    assert result.labels["lw"] != result.labels["sw"]
    assert result.labels["lw"] != result.labels["add"]
    assert result.labels["mul"] != result.labels["add"]
    assert result.labels["beq"] != result.labels["add"]
    assert len(all_combinations()) == 16807
