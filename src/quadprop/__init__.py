"""Gaussian propagators of quadratic Hamiltonians.

Normal-ordered factorization of the evolution operator, the symplectic
ABCD picture with its classical generating function, closed-form
Gaussian kernels and wavepacket evolution, and a coherent-state route
that re-derives the kernel independently. The brute-force oracles
(truncated Fock space, Crank-Nicolson grid) that validate all of it
live in ``quadprop.oracle`` and the invariant suites in
``quadprop.verify``; neither is imported here.
"""

from . import errors, lie_core, symplectic, propagator, coherent_iwop
from .errors import *
from .lie_core import *
from .symplectic import *
from .propagator import *
from .coherent_iwop import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *lie_core.__all__, *symplectic.__all__,
           *propagator.__all__, *coherent_iwop.__all__]
