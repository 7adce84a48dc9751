"""Fig. 8 + headline result — accuracy across ALL instruction combinations.

The paper's coverage benchmark: all 7^5 = 16807 pipeline combinations of
the representative instructions, randomly grouped into 17 groups of 1024
combinations (~5120 instructions each), plus another 17 groups drawn from
the full ISA.  Headline: "EMSim has about 94.1% accuracy in simulating
side-channel signals across all possible instruction combinations."
Every run scores all 34 groups.
"""

import numpy as np

from repro.core import coverage_groups

GROUP_SIZE = 1024


def test_fig8_coverage_accuracy(bench, record):
    scores = {}
    for use_full_isa in (False, True):
        groups = coverage_groups(group_size=GROUP_SIZE, seed=7,
                                 use_full_isa=use_full_isa)
        for group in groups:
            scores[group.name] = bench.accuracy(
                group, max_cycles=60_000)

    values = np.array(list(scores.values()))
    lines = ["accuracy per combination group (simulated vs measured):"]
    for name, value in scores.items():
        lines.append(f"  {name:<16s} {value:6.1%}")
    lines.append("")
    lines.append(f"groups: {len(scores)}")
    lines.append(f"average accuracy: {values.mean():6.1%}  "
                 f"(paper: ~94.1% across all combinations)")
    lines.append(f"min/max: {values.min():6.1%} / {values.max():6.1%}")
    record("fig8_accuracy", "\n".join(lines))

    assert values.mean() > 0.90
    assert values.min() > 0.85
