"""Robustness recovery: held-out accuracy vs injected capture-fault rate.

The acceptance claim for the resilience layer (docs/robustness.md): with
the canonical mixed fault plan hitting 20 % of captures, training through
the full scope + modulo pipeline still completes, and the retry /
escalation / degradation ladder plus Huber-robust fitting keep held-out
accuracy within 10 % of the fault-free fit.  Reports the accuracy and the
acquisition accounting at 0 % / 5 % / 20 %.
"""

from repro.core import EMSim, Trainer, coverage_groups
from repro.hardware import HardwareDevice
from repro.robustness import FaultPlan
from repro.signal import simulation_accuracy

FAULT_RATES = (0.0, 0.05, 0.20)
TOLERANCE = 0.10                     # max accuracy drop vs fault-free


def _train_at(rate):
    plan = FaultPlan.preset(rate, seed=101) if rate > 0 else None
    device = HardwareDevice(seed=7, fault_plan=plan)
    trainer = Trainer(device=device, capture_method="reference",
                      repetitions=16, activity_probes_per_class=4,
                      miso_groups=1, miso_group_size=64, seed=11)
    model = trainer.train()
    return device, model, trainer.report


def _held_out_accuracy(device, model):
    """Score on held-out coverage groups against the clean bench.

    The reference is the ideal capture — the ground truth the noisy
    pipeline is estimating — so the score isolates what the faults did
    to the *model*, not to the evaluation signal.
    """
    simulator = EMSim(model, core_config=device.core_config)
    groups = coverage_groups(group_size=96, seed=400, limit_groups=3)
    total = 0.0
    for group in groups:
        measured = device.capture_ideal(group)
        simulated = simulator.simulate(group)
        length = min(len(measured.signal), len(simulated.signal))
        total += simulation_accuracy(simulated.signal[:length],
                                     measured.signal[:length],
                                     device.samples_per_cycle)
    return total / len(groups)


def test_recovery_vs_fault_rate(record):
    rows = []
    for rate in FAULT_RATES:
        device, model, report = _train_at(rate)
        accuracy = _held_out_accuracy(device, model)
        rows.append((rate, accuracy, report))

    lines = ["held-out accuracy vs injected capture-fault rate",
             "(reference capture, 16 reps, retry+escalate+degrade, "
             "Huber fitting)", ""]
    baseline = rows[0][1]
    for rate, accuracy, report in rows:
        stats = report.acquisition
        lines.append(f"fault rate {rate:4.0%}: accuracy {accuracy:6.1%} "
                     f"(drop {baseline - accuracy:+6.1%})")
        lines.append(f"    {stats.summary()}")
    record("robustness_recovery", "\n".join(lines))

    # fault-free training through the noisy pipeline must stay close to
    # the paper's headline accuracy at these small training settings
    assert baseline > 0.80
    for rate, accuracy, report in rows[1:]:
        assert accuracy >= baseline - TOLERANCE, \
            f"rate {rate:.0%}: {accuracy:.1%} vs baseline {baseline:.1%}"
    # the 20% run must actually have exercised the ladder
    stressed = rows[-1][2].acquisition
    assert stressed.probes_retried > 0
    assert stressed.quality_rejects > 0
