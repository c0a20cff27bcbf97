"""Gaussian propagators of quadratic Hamiltonians.

Normal-ordered factorization of the evolution operator, the symplectic
ABCD picture with its classical generating function, closed-form
Gaussian kernels and wavepacket evolution, and a coherent-state route
that re-derives the kernel independently. The brute-force oracles
(truncated Fock space, Crank-Nicolson grid) that validate all of it
live in ``quadprop.oracle`` and the invariant suites in
``quadprop.verify``; neither is imported here.
"""

from .errors import BoundaryLeakError, FocalPointError, NonConvergentError
from .lie_core import (
    NormalOrderFactors,
    QuadraticGenerator,
    SU11Params,
    gc,
    gs,
    normal_order,
    to_su11,
)
from .symplectic import (
    AbcdMatrix,
    ScheduleError,
    abcd_from_generator,
    abcd_from_sr,
    compose,
    compose_schedule,
    load_schedule,
    matrix_exp_oracle,
    sr_from_abcd,
)
from .propagator import (
    ComplexGaussian,
    GaussianKernel,
    GaussianWavepacket,
    GeneratingFunctionW,
    classical_map_from_w,
    compose_kernels,
    convolve,
    generating_function,
    kernel_from_abcd,
    kernel_from_sr,
    named_generator,
)
from .coherent_iwop import (
    CoherentLabel,
    gaussian_integral,
    kernel_via_iwop,
    overlap_position,
    sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "AbcdMatrix",
    "BoundaryLeakError",
    "CoherentLabel",
    "ComplexGaussian",
    "FocalPointError",
    "GaussianKernel",
    "GaussianWavepacket",
    "GeneratingFunctionW",
    "NonConvergentError",
    "NormalOrderFactors",
    "QuadraticGenerator",
    "SU11Params",
    "ScheduleError",
    "abcd_from_generator",
    "abcd_from_sr",
    "classical_map_from_w",
    "compose",
    "compose_kernels",
    "compose_schedule",
    "convolve",
    "gaussian_integral",
    "gc",
    "generating_function",
    "gs",
    "kernel_from_abcd",
    "kernel_from_sr",
    "kernel_via_iwop",
    "load_schedule",
    "matrix_exp_oracle",
    "named_generator",
    "normal_order",
    "overlap_position",
    "sandwich",
    "sr_from_abcd",
    "to_su11",
]
