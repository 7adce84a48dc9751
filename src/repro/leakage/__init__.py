"""Leakage-assessment use cases: TVLA, SAVAT, AES, hardware debugging."""

from .aes import (DEFAULT_KEY, FIPS_CIPHERTEXT, FIPS_KEY, FIPS_PLAINTEXT,
                  SBOX, aes128_encrypt_reference, aes_program,
                  key_schedule, read_ciphertext)
from .debugging import (DebugReport, Deviation, UnitCheck,
                        buggy_multiplier, calibrated_deficit,
                        compare_to_reference, multiplier_stress_program,
                        unit_relative_check)
from .capacity import (InstructionProfiler, capacity_per_cycle,
                       mutual_information)
from .mitigation import (BalanceReport, MitigationError,
                         balance_branch_timing)
from .savat import (SAVAT_INSTRUCTIONS, SavatMeasurement,
                    SimulatorSignalSource, format_matrix, savat_matrix,
                    savat_pair, savat_program, savat_value)
from .spa import (SpaResult, duration_separation, iteration_starts,
                  recover_exponent)
from .streaming import (StreamingTTest, WelfordAccumulator,
                        collect_streaming_tvla)
from .tvla import TVLA_THRESHOLD, TVLAResult, collect_tvla_traces, tvla

__all__ = [
    "DEFAULT_KEY",
    "DebugReport",
    "Deviation",
    "FIPS_CIPHERTEXT",
    "FIPS_KEY",
    "FIPS_PLAINTEXT",
    "SAVAT_INSTRUCTIONS",
    "SBOX",
    "BalanceReport",
    "InstructionProfiler",
    "SavatMeasurement",
    "SimulatorSignalSource",
    "SpaResult",
    "StreamingTTest",
    "WelfordAccumulator",
    "TVLAResult",
    "TVLA_THRESHOLD",
    "aes128_encrypt_reference",
    "UnitCheck",
    "MitigationError",
    "aes_program",
    "buggy_multiplier",
    "balance_branch_timing",
    "calibrated_deficit",
    "capacity_per_cycle",
    "collect_streaming_tvla",
    "collect_tvla_traces",
    "compare_to_reference",
    "duration_separation",
    "format_matrix",
    "iteration_starts",
    "key_schedule",
    "multiplier_stress_program",
    "mutual_information",
    "read_ciphertext",
    "recover_exponent",
    "savat_matrix",
    "savat_pair",
    "savat_program",
    "savat_value",
    "tvla",
    "unit_relative_check",
]
