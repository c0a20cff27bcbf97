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
  entry as L D U (unit bidiagonal L and U) without pivoting, which is
  stable because Re A = I puts every pivot at real part >= 1, so a
  sub-step is two bidiagonal solves and one scaling by 2 D^-1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryLeakError
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

_EDGE_AMPLITUDE_LIMIT = 1e-6


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

    def mean_position(self) -> float:
        h = self.spacing
        dens = np.abs(self.amplitudes) ** 2
        return float(np.sum(self.x * dens) * h) / float(np.sum(dens) * h)

    def position_variance(self) -> float:
        h = self.spacing
        dens = np.abs(self.amplitudes) ** 2
        total = float(np.sum(dens) * h)
        mean = float(np.sum(self.x * dens) * h) / total
        return float(np.sum((self.x - mean) ** 2 * dens) * h) / total

    def mean_momentum(self) -> float:
        """<p> by central differences, Im int conj(psi) dpsi/dx."""
        h = self.spacing
        psi = self.amplitudes
        dpsi = np.zeros_like(psi)
        dpsi[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * h)
        val = np.sum(psi.conjugate() * dpsi) * h
        return float(val.imag) / self.norm() ** 2


def _hamiltonian_bands(g: QuadraticGenerator, x: np.ndarray, h: float):
    """Tridiagonal Hermitian discretization of (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2).

    p^2 by central second differences; the cross term by the symmetrized
    first derivative -(i/2)(x d/dx + d/dx x) averaged on the midpoints,
    which keeps the matrix exactly Hermitian.
    """
    n = x.size
    diag = np.full(n, g.alpha / (h * h), dtype=complex)
    diag += 0.5 * g.gamma * x * x
    upper = np.full(n - 1, -0.5 * g.alpha / (h * h), dtype=complex)
    if g.beta != 0.0:
        upper = upper - 0.25j * g.beta * (x[:-1] + x[1:]) / h
    return diag, upper


def _cayley_ldu(diag: np.ndarray, upper: np.ndarray, ds: float):
    """Pivot-free A = L D U of the Cayley matrix A = 1 + i ds H/2.

    H is the Hermitian tridiagonal matrix with real diagonal ``diag`` and
    superdiagonal ``upper``. Returns the pivots D and the off-diagonals of
    the unit lower and unit upper bidiagonal factors L and U. Elimination
    without row exchanges runs d[k+1] = A[k+1, k+1] - A[k+1, k] A[k, k+1] / d[k],
    the recurrence of LAPACK's zgttrf when it exchanges no rows. Since
    A[k, k+1] = -conj(A[k+1, k]), the update is + |A[k+1, k]|^2 / d[k], and
    with Re A[k, k] = 1 the pivots obey
    Re d[k+1] = 1 + |A[k+1, k]|^2 Re d[k] / |d[k]|^2 >= 1. This is A's
    Hermitian part being the identity: no pivot can vanish and no
    multiplier exceeds the entry of A it comes from, so no row exchange
    is needed.
    """
    pivots = (1.0 + 0.5j * ds * diag).tolist()
    sub = 0.5j * ds * upper.conjugate()
    sup = 0.5j * ds * upper
    d = pivots[0]
    for k, sub_k in enumerate(sub.tolist(), 1):
        d = pivots[k] = pivots[k] + sub_k / d * sub_k.conjugate()
    pivots = np.array(pivots)
    return pivots, sub / pivots[:-1], sup / pivots[:-1]


def grid_evolve(g_schedule, psi0: Grid, steps: int) -> Grid:
    """Crank-Nicolson evolution of a grid state through a generator schedule.

    Each schedule entry is one unit of flow parameter split into
    ``steps`` sub-steps. The Cayley step psi' = A^-1 (1 - i ds H/2) psi
    with A = 1 + i ds H/2 is exactly unitary for the Hermitian
    discretization used, so the norm is conserved to solver accuracy.
    Since 1 - i ds H/2 = 2 - A, the step is
    psi' = 2 A^-1 psi - psi and needs no matrix-vector product. A is
    factored once per schedule entry as L D U, unit lower and unit upper
    bidiagonal L and U, without pivoting: A's Hermitian part is the
    identity, so every pivot has real part >= 1 (see ``_cayley_ldu``).
    Each sub-step is then two unit bidiagonal solves (BLAS ztbsv) around
    a multiplication by the stored 2 D^-1, with no division.

    Raises ValueError on non-finite amplitudes or coefficients,
    LinAlgError if a pivot is zero or non-finite, and BoundaryLeakError
    if edge amplitude exceeds 1e-6.
    """
    from scipy.linalg.blas import ztbsv

    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = psi0.x
    h = psi0.spacing
    ds = 1.0 / steps
    psi = psi0.amplitudes.copy()
    # Band storage shared by both solves: row 0 holds U's superdiagonal,
    # row 1 L's subdiagonal; the unit diagonals are never read (diag=1).
    # Fortran order, so that ztbsv does not copy it on every call.
    band = np.zeros((2, psi.size), dtype=complex, order="F")

    for g in g_schedule:
        diag, upper = _hamiltonian_bands(g, x, h)
        if not (np.isfinite(diag).all() and np.isfinite(upper).all()):
            raise ValueError("Hamiltonian bands must not contain infs or NaNs")
        pivots, lower_mult, upper_mult = _cayley_ldu(diag, upper, ds)
        if not (np.isfinite(pivots).all() and pivots.all()):
            raise np.linalg.LinAlgError("Crank-Nicolson matrix has a zero or non-finite pivot")
        band[1, :-1] = lower_mult
        band[0, 1:] = upper_mult
        two_over_pivots = 2.0 / pivots
        for _ in range(steps):
            if not np.isfinite(psi).all():
                raise ValueError("grid amplitudes must not contain infs or NaNs")
            y = ztbsv(1, band, psi, lower=1, diag=1)
            y *= two_over_pivots
            y = ztbsv(1, band, y, diag=1, overwrite_x=1)
            psi = np.subtract(y, psi, out=y)
            edge = max(abs(psi[0]), abs(psi[-1]))
            if edge > _EDGE_AMPLITUDE_LIMIT:
                raise BoundaryLeakError(
                    f"edge amplitude {edge:.3e} exceeds {_EDGE_AMPLITUDE_LIMIT:.0e}; "
                    "widen the grid"
                )

    return replace(psi0, amplitudes=psi)
