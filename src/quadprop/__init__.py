"""Gaussian propagators of quadratic Hamiltonians.

Normal-ordered factorization of the evolution operator, the symplectic
ABCD picture with its classical generating function, closed-form
Gaussian kernels and wavepacket evolution, a coherent-state route that
re-derives the kernel independently, and brute-force oracles
(truncated Fock space, Crank-Nicolson grid) validating all of it.
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
    invert,
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
    QuadraticFormIntegral,
    gaussian_integral,
    kernel_via_iwop,
    overlap_position,
    sandwich,
)
from .oracle import (
    FockTruncation,
    Grid,
    fock_unitary_direct,
    fock_unitary_ordered,
    grid_evolve,
)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "AbcdMatrix",
    "BoundaryLeakError",
    "CoherentLabel",
    "ComplexGaussian",
    "FocalPointError",
    "FockTruncation",
    "GaussianKernel",
    "GaussianWavepacket",
    "GeneratingFunctionW",
    "Grid",
    "NonConvergentError",
    "NormalOrderFactors",
    "QuadraticFormIntegral",
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
    "fock_unitary_direct",
    "fock_unitary_ordered",
    "gaussian_integral",
    "gc",
    "generating_function",
    "grid_evolve",
    "gs",
    "invert",
    "kernel_from_abcd",
    "kernel_from_sr",
    "kernel_via_iwop",
    "load_schedule",
    "matrix_exp_oracle",
    "named_generator",
    "normal_order",
    "overlap_position",
    "run_all",
    "sandwich",
    "sr_from_abcd",
    "to_su11",
]
