"""Cycle-accurate 5-stage in-order RV32IM core with activity tracing."""

from .branch import (AlwaysNotTaken, BranchTargetBuffer, DirectionPredictor,
                     GShare, TwoLevelAdaptive, make_predictor)
from .cache import DataCache
from .config import CacheConfig, CoreConfig, DEFAULT_CONFIG
from .events import (BranchEvent, CacheEvent, FlushEvent, StallCause,
                     StallEvent)
from .isa_exec import (GoldenSimulator, alu_result, branch_taken,
                       control_flow_target, muldiv_result)
from .latches import (HardwareLatches, STAGES, STAGE_REGISTERS,
                      STAGE_SLICES, TOTAL_BITS,
                      TOTAL_REGISTERS, bubble_pattern, control_word,
                      stage_bit_count, stage_register_offsets)
from .memory import MainMemory
from .ooo import OutOfOrderCore, run_program_ooo
from .oracle import OracleOutcomes, collect_oracle
from .pipeline import Pipeline, run_program
from .regfile import RegisterFile
from .trace import (ActivityTrace, DYN_FINAL, DYN_HIT, DYN_MISS, DYN_NONE,
                    EM_CLASSES, EM_INDEX, KIND_BUBBLE, KIND_INSTR, KIND_STALL,
                    OCC_BUBBLE, OCC_INSTR, OCC_STALL,
                    RetiredInstruction, StageOccupancy, concat_traces)

__all__ = [
    "ActivityTrace",
    "AlwaysNotTaken",
    "BranchEvent",
    "BranchTargetBuffer",
    "CacheConfig",
    "CacheEvent",
    "CoreConfig",
    "DEFAULT_CONFIG",
    "DYN_FINAL",
    "DYN_HIT",
    "DYN_MISS",
    "DYN_NONE",
    "DataCache",
    "DirectionPredictor",
    "EM_CLASSES",
    "EM_INDEX",
    "FlushEvent",
    "GShare",
    "GoldenSimulator",
    "HardwareLatches",
    "KIND_BUBBLE",
    "KIND_INSTR",
    "KIND_STALL",
    "MainMemory",
    "OCC_BUBBLE",
    "OCC_INSTR",
    "OCC_STALL",
    "OracleOutcomes",
    "OutOfOrderCore",
    "Pipeline",
    "RegisterFile",
    "RetiredInstruction",
    "STAGES",
    "STAGE_REGISTERS",
    "STAGE_SLICES",
    "StageOccupancy",
    "StallCause",
    "StallEvent",
    "TOTAL_BITS",
    "TOTAL_REGISTERS",
    "TwoLevelAdaptive",
    "alu_result",
    "branch_taken",
    "bubble_pattern",
    "collect_oracle",
    "concat_traces",
    "control_flow_target",
    "control_word",
    "make_predictor",
    "muldiv_result",
    "run_program",
    "run_program_ooo",
    "stage_bit_count",
    "stage_register_offsets",
]
