"""Signal-processing substrate: kernels, reconstruction, capture, metrics."""

from .acquisition import Oscilloscope, ScopeConfig
from .filters import gaussian_smooth, moving_average
from .kernels import (DEFAULT_KERNEL, DampedSineKernel, ExpKernel, Kernel,
                      RectKernel, make_kernel)
from .metrics import (amplitude_correlation, cross_correlation,
                      match_report, normalize_energy, normalized_rmse,
                      per_cycle_correlations, per_cycle_similarities,
                      rms_error, simulation_accuracy)
from .modulo import modular_offsets, modulo_average
from .reconstruction import (batch_estimate_cycle_amplitudes,
                             batch_reconstruct, estimate_cycle_amplitudes,
                             peak_amplitudes, reconstruct, reconstruct_at)
from .spectrum import harmonic_energy, power_spectrum, spike_energy

__all__ = [
    "DEFAULT_KERNEL",
    "DampedSineKernel",
    "ExpKernel",
    "Kernel",
    "Oscilloscope",
    "RectKernel",
    "ScopeConfig",
    "amplitude_correlation",
    "batch_estimate_cycle_amplitudes",
    "batch_reconstruct",
    "cross_correlation",
    "estimate_cycle_amplitudes",
    "gaussian_smooth",
    "harmonic_energy",
    "make_kernel",
    "match_report",
    "modular_offsets",
    "modulo_average",
    "moving_average",
    "normalize_energy",
    "normalized_rmse",
    "peak_amplitudes",
    "per_cycle_correlations",
    "per_cycle_similarities",
    "power_spectrum",
    "reconstruct",
    "reconstruct_at",
    "rms_error",
    "simulation_accuracy",
]
