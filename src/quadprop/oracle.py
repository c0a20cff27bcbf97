"""Independent brute-force oracles.

Two deliberately dumb routes that know nothing about the closed forms:

* a truncated Fock space where the evolution operator is built both as
  a single matrix exponential of the su(1,1) combination and as the
  three-factor normal-ordered product, so the factorization parameters
  can be certified by direct matrix comparison;
* a norm-preserving Crank-Nicolson grid solver for
  i dpsi/ds = (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2) psi,
  one unit of flow parameter per schedule entry, validating kernels and
  wavepacket convolution end to end. With A = 1 + i ds H/2 each sub-step
  is psi' = A^-1 (2 - A) psi = 2 A^-1 psi - psi. A is factored once per
  entry both as L D U and as U~ D~ L~ (unit bidiagonal factors) without
  pivoting, which is stable because Re A = I puts every pivot at real
  part >= 1. The state is carried alternately as w = L^-1 psi and
  p = U~^-1 psi, and a sub-step is one tridiagonal product and one unit
  triangular solve with two off-diagonals:

      U~^-1 psi' = (U U~)^-1 (2 D^-1 w - (U L) w)
      L^-1 psi'  = (L~ L)^-1 (2 D~^-1 p - (L~ U~) p)

  The solve is one BLAS ztbsv sweep, which at n = 4096 costs about as
  much with two off-diagonals as with one (40 and 36 us on a 2-vCPU
  Xeon virtual machine), so a sub-step costs one sweep where stepping
  psi itself costs two. The stepping lives in ``_cayley``, which is
  imported on the first ``grid_evolve`` call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .lie_core import QuadraticGenerator, normal_order, to_su11
from .propagator import GaussianWavepacket

__all__ = [
    "FockTruncation",
    "Grid",
    "fock_unitary_direct",
    "fock_unitary_ordered",
    "grid_evolve",
]

DEFAULT_FOCK_DIM = 60


@dataclass(frozen=True)
class FockTruncation:
    """Bosonic ladder operators on the lowest ``dim`` number states.

    <m|a|n> = sqrt(n) delta_{m,n-1}; the commutator [a, a^dag] equals
    the identity on the first dim-1 levels (the last diagonal entry is
    a truncation artifact, as always).
    """

    dim: int
    a: np.ndarray
    adag: np.ndarray

    @classmethod
    def build(cls, dim: int) -> "FockTruncation":
        if dim < 16:
            raise ValueError(f"truncation dimension must be >= 16, got {dim}")
        a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
        return cls(dim=dim, a=a, adag=a.conj().T)

    @property
    def k_plus(self) -> np.ndarray:
        return 0.5 * (self.adag @ self.adag)

    @property
    def k_zero(self) -> np.ndarray:
        return 0.5 * (self.adag @ self.a) + 0.25 * np.eye(self.dim)

    @property
    def k_minus(self) -> np.ndarray:
        return 0.5 * (self.a @ self.a)

    def commutator_residual(self) -> float:
        """max |([a, a^dag] - 1)| over the first dim-1 levels."""
        comm = self.a @ self.adag - self.adag @ self.a - np.eye(self.dim)
        n = self.dim - 1
        return float(np.abs(comm[:n, :n]).max())


def fock_unitary_direct(g: QuadraticGenerator, dim: int = DEFAULT_FOCK_DIM) -> np.ndarray:
    """Single matrix exponential of tau K+ + i sigma K0 - tau* K- (truncated).

    Trustworthy on levels well below ``dim`` for coefficient magnitudes
    up to ~1 (truncation-error regime).
    """
    from scipy.linalg import expm

    fock = FockTruncation.build(dim)
    p = to_su11(g)
    gen = p.tau * fock.k_plus + 1j * p.sigma * fock.k_zero - p.tau.conjugate() * fock.k_minus
    return expm(gen)


def fock_unitary_ordered(g: QuadraticGenerator, dim: int = DEFAULT_FOCK_DIM) -> np.ndarray:
    """Three-factor normal-ordered product exp(-(r/s)K+) diag exp((r*/s)K-).

    The middle factor is diagonal with entries s^{-(n+1/2)} on level n
    (principal branch of ln s). Agreement with ``fock_unitary_direct``
    certifies the (s, r) closed form.
    """
    from scipy.linalg import expm

    fock = FockTruncation.build(dim)
    f = normal_order(g)
    log_s = cmath.log(f.s)
    middle = np.diag(np.exp(-(np.arange(dim) + 0.5) * log_s))
    left = expm(-(f.r / f.s) * fock.k_plus)
    right = expm((f.r.conjugate() / f.s) * fock.k_minus)
    return left @ middle @ right


@dataclass(frozen=True)
class Grid:
    """Uniform position grid carrying complex amplitudes.

    n_points must be a power of two >= 512.
    """

    x_min: float
    x_max: float
    n_points: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_points
        if n < 512 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 512, got {n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise ValueError("x_min and x_max must be finite with x_max > x_min, "
                             f"got {self.x_min!r} and {self.x_max!r}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (n,):
            raise ValueError(f"amplitudes have shape {amp.shape}, expected ({n},)")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @classmethod
    def from_wavepacket(
        cls,
        psi: GaussianWavepacket,
        x_min: float = -40.0,
        x_max: float = 40.0,
        n_points: int = 4096,
    ) -> "Grid":
        # validate the axis before sampling the packet on it
        grid = cls(x_min, x_max, n_points, np.zeros(n_points, dtype=complex))
        return replace(grid, amplitudes=psi.evaluate(grid.x))

    def norm(self) -> float:
        h = self.spacing
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) * h)


def _hamiltonian_bands(g: QuadraticGenerator, x: np.ndarray, h: float):
    """Tridiagonal Hermitian discretization of (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2).

    p^2 by central second differences; the cross term by the symmetrized
    first derivative -(i/2)(x d/dx + d/dx x) averaged on the midpoints,
    which keeps the matrix exactly Hermitian. Returns the real diagonal
    and the complex superdiagonal.
    """
    n = x.size
    diag = np.full(n, g.alpha / (h * h))
    diag += 0.5 * g.gamma * x * x
    upper = np.full(n - 1, -0.5 * g.alpha / (h * h), dtype=complex)
    if g.beta != 0.0:
        upper -= 0.25j * g.beta * (x[:-1] + x[1:]) / h
    return diag, upper


def grid_evolve(g_schedule, psi0: Grid, steps: int) -> Grid:
    """Crank-Nicolson evolution of a grid state through a generator schedule.

    Each schedule entry is one unit of flow parameter split into
    ``steps`` sub-steps. The Cayley step psi' = A^-1 (1 - i ds H/2) psi
    with A = 1 + i ds H/2 is exactly unitary for the Hermitian
    discretization used, so the norm is conserved to solver accuracy.
    Since 1 - i ds H/2 = 2 - A, the step is psi' = 2 A^-1 psi - psi.

    A is factored once per schedule entry in both directions, without
    pivoting (every pivot has real part >= 1, see ``_cayley.ldu``):
    A = L D U and A = U~ D~ L~, with unit lower L, L~ and unit upper U, U~
    bidiagonal. The state is carried alternately as w = L^-1 psi and
    p = U~^-1 psi, so that each sub-step is

        from w:  U~^-1 psi' = (U U~)^-1 (2 D^-1 w - (U L) w)
        from p:  L^-1 psi' = (L~ L)^-1 (2 D~^-1 p - (L~ U~) p)

    U L and L~ U~ are tridiagonal (one matrix-vector product), and U U~
    and L~ L are unit triangular with two off-diagonals (one BLAS ztbsv
    sweep with k = 2). OpenBLAS ztbsv costs about the same per column
    with k = 1 or k = 2, so one such sweep replaces the two bidiagonal
    solves that stepping psi itself would need. With u, l, u~, l~ the
    factors' off-diagonals, U U~ has superdiagonals u[k] + u~[k] and
    u[k] u~[k+1], L~ L has subdiagonals l[k] + l~[k] and l~[k+1] l[k],
    and U L and L~ U~ have diagonals 1 + u[k] l[k] and
    1 + l~[k-1] u~[k-1] and off-diagonals u, l and u~, l~. psi is formed
    only at the end of each entry, as L w or U~ p.

    Every sub-step checks the state for infs and NaNs (on the
    carried vector, which a finite bidiagonal map keeps finite or
    non-finite) and the edge amplitudes of psi, read off two entries of
    the carried vector.

    Raises ValueError on non-finite amplitudes or coefficients,
    LinAlgError if a pivot is zero or non-finite, and BoundaryLeakError
    if edge amplitude exceeds 1e-6.
    """
    # compiled only by the processes that evolve a grid
    from ._cayley import evolve

    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = psi0.x
    h = psi0.spacing
    entries = (_hamiltonian_bands(g, x, h) for g in g_schedule)
    return replace(psi0, amplitudes=evolve(entries, psi0.amplitudes.copy(), steps))
