"""Independent brute-force oracles.

Two deliberately dumb routes that know nothing about the closed forms:

* a truncated Fock space where the evolution operator is built both as
  a single matrix exponential of the su(1,1) combination and as the
  three-factor normal-ordered product, so the factorization parameters
  can be certified by direct matrix comparison;
* a norm-preserving Crank-Nicolson grid solver for
  i dpsi/ds = (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2) psi,
  one unit of flow parameter per schedule entry, validating kernels and
  wavepacket convolution end to end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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

    n_points must be a power of two >= 512; dt is the Crank-Nicolson
    sub-step in flow parameter used when ``grid_evolve`` is called
    without an explicit step count.
    """

    x_min: float
    x_max: float
    n_points: int
    dt: float
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_points
        if n < 512 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 512, got {n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
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
        dt: float = 1e-3,
    ) -> "Grid":
        x = np.linspace(x_min, x_max, n_points)
        return cls(x_min=x_min, x_max=x_max, n_points=n_points, dt=dt,
                   amplitudes=psi.evaluate(x))

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


def grid_evolve(
    g_schedule,
    psi0: Grid,
    steps: int | None = None,
) -> Grid:
    """Crank-Nicolson evolution of a grid state through a generator schedule.

    Each schedule entry is one unit of flow parameter split into
    ``steps`` sub-steps (default round(1/psi0.dt)). The Cayley stepping
    (1 + i ds H/2) psi' = (1 - i ds H/2) psi is exactly unitary for the
    Hermitian discretization used, so the norm is conserved to solver
    accuracy. The tridiagonal matrix (1 + i ds H/2) is LU-factored once
    per schedule entry (LAPACK zgttrf, partial pivoting); each sub-step
    then only back-substitutes (zgttrs). Raises ValueError on non-finite
    amplitudes or coefficients, LinAlgError if the matrix is singular,
    and BoundaryLeakError if edge amplitude exceeds 1e-6.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    if steps is None:
        steps = max(1, round(1.0 / psi0.dt))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = psi0.x
    h = psi0.spacing
    ds = 1.0 / steps
    psi = psi0.amplitudes.copy()

    for g in g_schedule:
        diag, upper = _hamiltonian_bands(g, x, h)
        lower = upper.conjugate()
        if not (np.isfinite(diag).all() and np.isfinite(upper).all()):
            raise ValueError("Hamiltonian bands must not contain infs or NaNs")
        dl, d, du, du2, ipiv, info = zgttrf(
            0.5j * ds * lower, 1.0 + 0.5j * ds * diag, 0.5j * ds * upper
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"Crank-Nicolson matrix is singular (zgttrf info={info})")
        b_diag = 1.0 - 0.5j * ds * diag
        b_upper = -0.5j * ds * upper
        b_lower = -0.5j * ds * lower
        for _ in range(steps):
            rhs = b_diag * psi
            rhs[:-1] += b_upper * psi[1:]
            rhs[1:] += b_lower * psi[:-1]
            if not np.isfinite(rhs).all():
                raise ValueError("grid amplitudes must not contain infs or NaNs")
            psi, _ = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
            edge = max(abs(psi[0]), abs(psi[-1]))
            if edge > _EDGE_AMPLITUDE_LIMIT:
                raise BoundaryLeakError(
                    f"edge amplitude {edge:.3e} exceeds {_EDGE_AMPLITUDE_LIMIT:.0e}; "
                    "widen the grid"
                )

    return Grid(
        x_min=psi0.x_min,
        x_max=psi0.x_max,
        n_points=psi0.n_points,
        dt=ds,
        amplitudes=psi,
    )
