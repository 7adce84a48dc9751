"""The trained EMSim model: amplitudes, floors, MISO coefficients.

Prediction (Eq. 9 of the paper, with explicit event handling from §IV):

    X[n] = delta + sum_s  contribution(s, n)

    contribution = 0                              stage stalled
                 = F_s                            stage flows a NOP/bubble
                 = F_s + M_s * alpha_s[n] * A(c, s)   stage runs class c

``A(c, s)`` is the *baseline hardware amplitude* of behavioural class ``c``
in stage ``s``, measured as the deviation from the all-NOP signal;
``alpha`` the activity factor; ``F_s`` the per-stage NOP floor and ``M_s``
the fitted MISO combination coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..uarch.latches import STAGES
from ..uarch.trace import EM_CLASSES, EM_INDEX, ActivityTrace, StageOccupancy
from .config import EMSimConfig, ModelSwitches
from .factors import (ActivityFactorModel, AverageActivity,
                      RegressionActivity, UnitActivity)

_EM_NOP = EM_INDEX["nop"]
_EM_STALL = EM_INDEX["stall"]


def _stalled_class(occ: StageOccupancy) -> str:
    """The class a stalled occupant would show at full activity (the
    ``model_stalls=False`` ablation); a stalled load counts as a hit or
    a miss by its cache tag."""
    if occ.instr is None:
        return "nop"
    if occ.instr.is_load:
        return "load_cache" if occ.dyn == "hit" else "load_mem"
    return occ.instr.cls.value


@dataclass
class EMSimModel:
    """All trained parameters of one EMSim instance."""

    config: EMSimConfig
    amplitudes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    floors: Dict[str, float] = field(default_factory=dict)
    miso: Dict[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    regression_activity: RegressionActivity = \
        field(default_factory=RegressionActivity)
    average_activity: AverageActivity = field(default_factory=AverageActivity)
    # per-stage beta scaling for off-base probe positions (paper §V-D);
    # 1.0 everywhere at the training position
    beta: Dict[str, float] = field(default_factory=dict)
    nop_level: float = 0.0
    trained_on: str = ""

    # ------------------------------------------------------------------
    # parameter lookup
    # ------------------------------------------------------------------
    def amplitude(self, em_class: str, stage: str,
                  switches: Optional[ModelSwitches] = None) -> float:
        """Baseline amplitude A(c, s) with ablation-aware fallbacks."""
        switches = switches or self.config.switches
        if not switches.model_cache and em_class == "load_mem":
            em_class = "load_cache"
        if not switches.per_stage_sources:
            values = [value for (cls, _), value in self.amplitudes.items()
                      if cls == em_class]
            return float(np.mean(values)) if values else 0.0
        key = (em_class, stage)
        if key in self.amplitudes:
            return self.amplitudes[key]
        # dynamic load variants share early-stage behaviour with "load"
        if em_class in ("load_cache", "load_mem") and \
                ("load", stage) in self.amplitudes:
            return self.amplitudes[("load", stage)]
        return 0.0

    def class_amplitudes(self, stage: str,
                         switches: Optional[ModelSwitches] = None
                         ) -> np.ndarray:
        """A(c, s) for every class of :data:`EM_CLASSES` in ``stage``.

        Indexed by EM code, so ``class_amplitudes(s)[trace.em_codes(s)]``
        is the per-cycle amplitude.  ``nop`` and ``stall`` hold 0.0: a
        NOP contributes only the floor and a stall nothing.
        """
        return np.array([
            0.0 if code in (_EM_NOP, _EM_STALL)
            else self.amplitude(name, stage, switches)
            for code, name in enumerate(EM_CLASSES)])

    def _activity_model(self,
                        switches: ModelSwitches) -> ActivityFactorModel:
        if not switches.data_dependence:
            return UnitActivity()
        if switches.regression_alpha:
            return self.regression_activity
        return self.average_activity

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_cycle_amplitudes(
            self, trace: ActivityTrace,
            switches: Optional[ModelSwitches] = None) -> np.ndarray:
        """Per-cycle predicted signal amplitudes X[n] for a trace.

        Each stage gathers its :meth:`class_amplitudes` table by the
        trace's EM codes and takes the stall mask from the same codes.
        The Eq. 9 combination then runs as one numpy expression per
        stage, so a NOP cycle contributes ``base + x * 0.0``, which
        equals ``base`` exactly for finite operands, and stalled cycles
        are masked to an exact ``0.0`` afterwards.
        """
        switches = switches or self.config.switches
        activity = self._activity_model(switches)
        cycles = trace.num_cycles
        prediction = np.full(cycles, self.intercept)
        for stage in STAGES:
            floor = self.floors.get(stage, 0.0)
            beta = self.beta.get(stage, 1.0)
            scale = self.miso.get(stage, 1.0) * beta
            alphas = activity.alpha(trace, stage)
            table = self.class_amplitudes(stage, switches)
            codes = trace.em_codes(stage)
            amplitudes = table[codes]
            stalled = codes == _EM_STALL
            has_stalls = stalled.any()
            if has_stalls and not switches.model_stalls:
                # ablation: pretend the stalled instruction kept
                # switching at full activity (the occupancy objects
                # materialize only on this path, read at stall cycles)
                occupancy = trace.occupancy[stage]
                for cycle in np.flatnonzero(stalled).tolist():
                    amplitudes[cycle] = table[EM_INDEX[
                        _stalled_class(occupancy[cycle])]]
            contribution = (floor * beta) + (scale * alphas) * amplitudes
            if has_stalls and switches.model_stalls:
                contribution[stalled] = 0.0
            prediction += contribution
        return prediction

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def amplitude_table(self) -> str:
        """Formatted A(c, s) table (classes x stages)."""
        classes = sorted({cls for cls, _ in self.amplitudes})
        header = "class      " + "".join(f"{stage:>9s}" for stage in STAGES)
        lines = [header]
        for cls in classes:
            row = f"{cls:<11s}"
            for stage in STAGES:
                value = self.amplitudes.get((cls, stage))
                row += f"{value:9.3f}" if value is not None else \
                    "        -"
            lines.append(row)
        return "\n".join(lines)

    def summary(self) -> str:
        """One-paragraph description of the trained model."""
        kept = self.regression_activity.selected_fraction()
        return (f"EMSimModel(trained_on={self.trained_on!r}, "
                f"classes={len({c for c, _ in self.amplitudes})}, "
                f"nop_level={self.nop_level:.3f}, "
                f"alpha_bits_kept={kept:.1%}, "
                f"miso={{{', '.join(f'{s}: {v:.2f}' for s, v in sorted(self.miso.items()))}}})")
