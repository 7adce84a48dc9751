"""Signal-processing substrate: kernels, reconstruction, capture, metrics."""

from .acquisition import Oscilloscope, ScopeConfig
from .kernels import (DEFAULT_KERNEL, DampedSineKernel, ExpKernel, Kernel,
                      RectKernel, make_kernel)
from .metrics import (cross_correlation, normalize_energy, normalized_rmse,
                      per_cycle_similarities, rms_error,
                      simulation_accuracy)
from .modulo import modular_offsets, modulo_average
from .reconstruction import (batch_estimate_cycle_amplitudes,
                             batch_reconstruct, estimate_cycle_amplitudes,
                             reconstruct)
from .spectrum import harmonic_energy, power_spectrum, spike_energy

__all__ = [
    "DEFAULT_KERNEL",
    "DampedSineKernel",
    "ExpKernel",
    "Kernel",
    "Oscilloscope",
    "RectKernel",
    "ScopeConfig",
    "batch_estimate_cycle_amplitudes",
    "batch_reconstruct",
    "cross_correlation",
    "estimate_cycle_amplitudes",
    "harmonic_energy",
    "make_kernel",
    "modular_offsets",
    "modulo_average",
    "normalize_energy",
    "normalized_rmse",
    "per_cycle_similarities",
    "power_spectrum",
    "reconstruct",
    "rms_error",
    "simulation_accuracy",
]
