"""§III-B ablation — step-wise regression prunes most transition bits.

"Using this method we managed to reduce the size of T by more than 65%":
the F-test entry criterion keeps only the transition features with a
statistically significant amplitude contribution, with (almost) no
accuracy cost versus using every bit.
"""

from repro.core import Trainer, coverage_groups, EMSim
from repro.hardware import HardwareDevice
from repro.uarch import STAGES, STAGE_REGISTERS, stage_bit_count


def test_abl_stepwise_pruning(bench, record):
    program = coverage_groups(group_size=160, seed=58, limit_groups=1)[0]

    total = sum(stage_bit_count(stage) + len(STAGE_REGISTERS[stage])
                for stage in STAGES)
    kept_fraction = bench.model.regression_activity \
        .selected_fraction()
    pruned = {stage: model.features.size
              for stage, model in
              bench.model.regression_activity.models.items()}
    accuracy_pruned = bench.accuracy(program)

    # re-train with an enormous feature budget (no pruning pressure)
    device = HardwareDevice()
    trainer = Trainer(device=device, activity_probes_per_class=20,
                      miso_groups=1, miso_group_size=128)
    trainer.config = trainer.config.__class__(
        samples_per_cycle=trainer.config.samples_per_cycle,
        kernel=trainer.config.kernel,
        stepwise_f_threshold=0.0,
        stepwise_max_features=120)
    unpruned_model = trainer.train()
    unpruned_fraction = unpruned_model.regression_activity \
        .selected_fraction()
    accuracy_unpruned = bench.accuracy(
        program,
        simulator=EMSim(unpruned_model,
                        core_config=device.core_config))

    per_stage = ", ".join(f"{stage}:{count}" for stage, count in
                          sorted(pruned.items()))
    lines = [
        f"transition features available: {total} "
        "(bits + per-register counts)",
        f"kept by step-wise selection: {kept_fraction:.1%} "
        f"({per_stage})",
        f"  -> removed {1 - kept_fraction:.1%} "
        "(paper: more than 65% removed)",
        "",
        f"accuracy with pruned features:   {accuracy_pruned:6.1%}",
        f"accuracy with a 5x feature budget: {accuracy_unpruned:6.1%} "
        f"(keeping {unpruned_fraction:.1%})",
        "",
        "paper shape: pruning >65% of T costs essentially nothing -> " +
        ("reproduced" if accuracy_pruned > accuracy_unpruned - 0.02
         else "NOT reproduced"),
    ]
    record("abl_stepwise", "\n".join(lines))

    assert kept_fraction < 0.35          # >65% removed
    assert accuracy_pruned > accuracy_unpruned - 0.02
