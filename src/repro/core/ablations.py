"""Named model ablations matching the paper's degradation experiments.

Each entry maps to one "what happens if we don't model X" study:

======================  =========================================  =======
ablation                meaning                                    figure
======================  =========================================  =======
``single-source``       whole processor as one EM source            Fig. 2
``avg-alpha``           Eq. 7 flip averaging instead of LR          Fig. 3
``no-data``             ignore operand values entirely              §III-B
``no-stall``            stalled stages keep radiating               Fig. 5
``no-cache``            every access treated as a cache hit         Fig. 6
``no-mispredict``       fetch modeled as never mispredicting        Fig. 7
======================  =========================================  =======
"""

from __future__ import annotations

from typing import Dict

from ..uarch.config import CoreConfig, DEFAULT_CONFIG
from .model import EMSimModel
from .simulator import EMSim

ABLATIONS: Dict[str, Dict[str, bool]] = {
    "full": {},
    "single-source": {"per_stage_sources": False},
    "avg-alpha": {"regression_alpha": False},
    "no-data": {"data_dependence": False},
    "no-stall": {"model_stalls": False},
    "no-cache": {"model_cache": False},
    "no-mispredict": {"model_mispredicts": False},
}
"""Ablation name -> :class:`ModelSwitches` overrides."""


def make_simulator(model: EMSimModel, ablation: str = "full",
                   core_config: CoreConfig = DEFAULT_CONFIG) -> EMSim:
    """Build an :class:`EMSim` with one named ablation applied."""
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}; "
                         f"choose from {sorted(ABLATIONS)}")
    simulator = EMSim(model, core_config=core_config)
    overrides = ABLATIONS[ablation]
    return simulator.with_switches(**overrides) if overrides else simulator

