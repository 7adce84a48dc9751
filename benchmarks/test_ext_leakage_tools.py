"""Extensions — SPA key recovery, leakage capacity, and profiling.

Design-stage security analyses built on EMSim's simulated signals, per the
paper's introduction (software leak detection, compiler guidance) and
related work (capacity metrics [40]/[60], Spectral Profiling / EMPROF):

* SPA against square-and-multiply modexp: the simulated signal recovers
  the key; the constant-time rewrite closes the channel;
* mutual-information capacity of a single key bit, localized in time;
* template-based instruction recognition on both real and simulated
  signals.
"""

import numpy as np

from repro.core import isolation_probe, probe_instruction_seq
from repro.leakage import (InstructionProfiler, capacity_per_cycle,
                           duration_separation, recover_exponent)
from repro.workloads import modexp_program

SECRET = 0xACE5
MODULUS = 40961


def test_ext_spa_key_recovery(bench, record):
    results = {}
    for constant_time in (False, True):
        program = modexp_program(7, SECRET, MODULUS,
                                 constant_time=constant_time)
        simulated = bench.simulator.simulate(program)
        spa = recover_exponent(simulated.trace, program)
        results[constant_time] = dict(
            recovered=spa.exponent(),
            separation=duration_separation(spa.durations),
            cycles=simulated.num_cycles)

    leaky = results[False]
    hardened = results[True]
    lines = [
        f"SPA on EMSim-simulated modexp signals (secret {SECRET:#06x}):",
        f"  naive:         recovered {leaky['recovered']:#06x} "
        f"({'KEY RECOVERED' if leaky['recovered'] == SECRET else 'failed'}"
        f", cluster separation {leaky['separation']:.0f} cycles)",
        f"  constant-time: recovered {hardened['recovered']:#06x} "
        f"({'KEY RECOVERED' if hardened['recovered'] == SECRET else 'attack defeated'}"
        f", separation {hardened['separation']:.0f} cycles)",
    ]
    record("ext_spa", "\n".join(lines))
    assert leaky["recovered"] == SECRET
    assert hardened["recovered"] != SECRET
    assert leaky["separation"] > hardened["separation"] + 3


def test_ext_leakage_capacity(bench, record):
    from repro.leakage import iteration_starts
    rng = np.random.default_rng(3)
    noise = np.random.default_rng(17)
    capacities = {}
    for constant_time in (False, True):
        secrets, traces = [], []
        loop_start = None
        for _ in range(50):
            bit = int(rng.integers(0, 2))
            exponent = (0x2A << 2) | (bit << 1) | 1
            program = modexp_program(7, exponent, MODULUS, bits=8,
                                     constant_time=constant_time)
            simulated = bench.simulator.simulate(program)
            if loop_start is None:
                loop_start = iteration_starts(simulated.trace,
                                              program)[0]
            # attacker-realistic single-shot traces: add noise and
            # analyze from the loop onward (the prologue trivially
            # encodes the key operand in both variants)
            signal = simulated.signal[loop_start * bench.spc:]
            traces.append(signal + noise.normal(0.0, 0.3,
                                                size=signal.shape))
            secrets.append(bit)
        length = min(len(trace) for trace in traces)
        traces = [trace[:length] for trace in traces]
        capacities[constant_time] = capacity_per_cycle(
            secrets, traces, bench.spc)

    leaky = capacities[False]
    hardened = capacities[True]
    leaky_cycles = int((leaky > 0.3).sum())
    hardened_cycles = int((hardened > 0.3).sum())
    lines = [
        "mutual information between one key bit and per-cycle energy",
        "(50 noisy simulated traces each, loop window):",
        f"  naive modexp:         max {float(leaky.max()):.2f} "
        f"bits/trace, {leaky_cycles} leaking cycles "
        "(timing shift exposes the whole tail)",
        f"  constant-time modexp: max {float(hardened.max()):.2f} "
        f"bits/trace, {hardened_cycles} leaking cycles "
        "(localized amplitude leak in the mask datapath)",
        "",
        "the capacity map shows the constant-time rewrite kills the",
        "timing channel but a DPA-style amplitude residue remains at",
        "the bit-handling cycles - masking would be the next fix. all",
        "derived from simulation, before any hardware exists.",
    ]
    record("ext_capacity", "\n".join(lines))
    assert float(leaky.max()) > 0.8
    # the timing channel smears the naive leak over far more cycles
    assert leaky_cycles > 3 * max(1, hardened_cycles)


def test_ext_automated_mitigation(bench, record):
    """EMSim-verified compiler pass: balance secret-dependent branches."""
    from repro.leakage import balance_branch_timing
    from repro.workloads import modexp_reference
    from repro.uarch import GoldenSimulator

    program = modexp_program(7, SECRET, MODULUS)
    balanced, report = balance_branch_timing(program)
    golden = GoldenSimulator(balanced)
    golden.run(max_steps=300_000)
    assert golden.registers[13] == modexp_reference(7, SECRET,
                                                    MODULUS)
    results = {}
    for label, target in (("naive", program),
                          ("balanced", balanced)):
        simulated = bench.simulator.simulate(target)
        spa = recover_exponent(simulated.trace, target)
        results[label] = dict(recovered=spa.exponent(),
                              separation=duration_separation(
                                  spa.durations),
                              cycles=simulated.num_cycles)

    naive = results["naive"]
    balanced = results["balanced"]
    lines = [
        "automated branch-timing balancing, verified through EMSim:",
        f"  pass transformed {report.transformed} branch, "
        f"added {report.added_instructions} instructions",
        f"  naive:    SPA recovers {naive['recovered']:#06x} "
        f"({'KEY RECOVERED' if naive['recovered'] == SECRET else 'failed'}"
        f", separation {naive['separation']:.0f} cycles, "
        f"{naive['cycles']} cycles total)",
        f"  balanced: SPA recovers {balanced['recovered']:#06x} "
        f"({'KEY RECOVERED' if balanced['recovered'] == SECRET else 'attack defeated'}"
        f", separation {balanced['separation']:.0f} cycles, "
        f"{balanced['cycles']} cycles total)",
        "",
        "the compiler use case of the paper's introduction: optimize for",
        "reduced leakage against the simulated signal, no hardware loop.",
    ]
    record("ext_mitigation", "\n".join(lines))
    assert naive["recovered"] == SECRET
    assert balanced["recovered"] != SECRET
    assert balanced["separation"] < naive["separation"] - 3


def test_ext_instruction_profiling(bench, record):
    classes = ("mul", "lw", "sw", "add")
    train_values = [(3, 5), (17, 9), (250, 97), (4444, 321)]
    test_values = [(7, 2), (1000, 13)]

    def examples(name, values, source):
        cases = []
        for rs1, rs2 in values:
            probe = isolation_probe(name, rs1_value=rs1,
                                    rs2_value=rs2)
            if source == "real":
                measurement = bench.device.capture_ideal(probe)
                signal, trace = measurement.signal, measurement.trace
            else:
                simulated = bench.simulator.simulate(probe)
                signal, trace = simulated.signal, simulated.trace
            seq = probe_instruction_seq(probe)
            start = min(trace.cycles_of(seq, "F"))
            cases.append((signal, start))
        return cases

    profiler = InstructionProfiler(samples_per_cycle=bench.spc).fit(
        {name: examples(name, train_values, "real")
         for name in classes})
    real_accuracy = profiler.accuracy(
        {name: examples(name, test_values, "real")
         for name in classes})
    # cross-domain: templates trained on the bench recognize EMSim's
    # simulated signals (the signals carry the same features)
    sim_accuracy = profiler.accuracy(
        {name: examples(name, test_values, "sim")
         for name in classes})

    chance = 1.0 / len(classes)
    lines = [
        f"template recognition over {classes} "
        f"(chance = {chance:.0%}):",
        f"  real -> real:      {real_accuracy:6.1%}",
        f"  real -> simulated: {sim_accuracy:6.1%}  (cross-domain)",
        "",
        "EMSim's signals carry the same program-tracking features the",
        "EM-profiling literature exploits (Spectral Profiling, EMPROF).",
    ]
    record("ext_profiling", "\n".join(lines))
    assert real_accuracy >= 0.7
    assert sim_accuracy >= 0.5
