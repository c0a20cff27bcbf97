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
  psi itself costs two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import ztbsv

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
        h = self.spacing
        if not (math.isfinite(h) and h * h > 0.0 and math.isfinite(1.0 / (h * h))):
            raise ValueError(f"grid spacing {h!r} must be finite with a finite 1/spacing^2")
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


_EDGE_AMPLITUDE_LIMIT = 1e-6
_SWEEP_BLOCK = 512


def _eliminate(pivots: np.ndarray, sub: np.ndarray) -> None:
    """Run pivots[k+1] += sub[k] / pivots[k] * conj(sub[k]), k = 0, 1, ..., in place.

    The recurrence runs on Python complex numbers, which is faster than on
    numpy scalars, one block of ``_SWEEP_BLOCK`` entries at a time, so that
    only one block's objects are alive.
    """
    d = complex(pivots[0])
    for lo in range(0, sub.size, _SWEEP_BLOCK):
        hi = lo + _SWEEP_BLOCK
        block = pivots[lo + 1:hi + 1].tolist()
        for k, sub_k in enumerate(sub[lo:hi].tolist()):
            d = block[k] = block[k] + sub_k / d * sub_k.conjugate()
        pivots[lo + 1:hi + 1] = block


def ldu(diag: np.ndarray, upper: np.ndarray, ds: float):
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
    pivots = 1.0 + 0.5j * ds * diag
    lower = 0.5j * ds * upper.conjugate()
    _eliminate(pivots, lower)
    lower /= pivots[:-1]
    upper = 0.5j * ds * upper
    upper /= pivots[:-1]
    return pivots, lower, upper


def uld(diag: np.ndarray, upper: np.ndarray, ds: float):
    """Pivot-free A = U~ D~ L~ of the same Cayley matrix, eliminating upwards.

    Returns the pivots D~ and the off-diagonals of the unit lower and unit
    upper bidiagonal factors L~ and U~. Elimination from the last row up
    runs d[k] = A[k, k] - A[k, k+1] A[k+1, k] / d[k+1]: ``ldu``'s
    recurrence on the reversed rows, so by the same argument Re d[k] >= 1
    and no row exchange is needed.
    """
    pivots = 1.0 + 0.5j * ds * diag
    lower = 0.5j * ds * upper.conjugate()
    _eliminate(pivots[::-1], lower[::-1])
    lower /= pivots[1:]
    upper = 0.5j * ds * upper
    upper /= pivots[1:]
    return pivots, lower, upper


def _require_pivots(pivots: np.ndarray) -> None:
    if not (np.isfinite(pivots).all() and pivots.all()):
        raise np.linalg.LinAlgError("Crank-Nicolson matrix has a zero or non-finite pivot")


def _substeps(v, r, t, legs, steps):
    """The sub-steps of one schedule entry, from w = L^-1 psi in ``v``.

    ``legs`` holds, for the step from w and for the step from p, the
    diagonal, superdiagonal and subdiagonal of its tridiagonal factor,
    its k = 2 band, and the multipliers a, b that give the edges of psi
    from the state it leaves, psi[0] = v[0] + a v[1] and
    psi[-1] = v[-1] + b v[-2]. ``r`` and ``t`` are work vectors. Returns
    the carried state and the other work vector.
    """
    for i in range(steps):
        # a sum that overflows is re-checked entry by entry
        if not (cmath.isfinite(v.sum()) or np.isfinite(v).all()):
            raise ValueError("grid amplitudes must not contain infs or NaNs")
        c, sup, sub, band, a, b = legs[i & 1]
        np.multiply(c, v, out=r)
        r[:-1] -= np.multiply(sup, v[1:], out=t)
        r[1:] -= np.multiply(sub, v[:-1], out=t)
        v, r = ztbsv(2, band, r, lower=i & 1, diag=1, overwrite_x=1), v
        edge = max(abs(v[0] + a * v[1]), abs(v[-1] + b * v[-2]))
        if edge > _EDGE_AMPLITUDE_LIMIT:
            raise BoundaryLeakError(
                f"edge amplitude {edge:.3e} exceeds {_EDGE_AMPLITUDE_LIMIT:.0e}; "
                "widen the grid"
            )
    return v, r


def _evolve(entries, v: np.ndarray, steps: int) -> np.ndarray:
    """Step the amplitudes ``v`` in place through the schedule entries.

    ``entries`` yields each entry's Hamiltonian bands (real diagonal,
    complex superdiagonal); see ``grid_evolve`` for the scheme,
    the guards and the errors. Returns the final amplitudes, which may be
    a different array than ``v``.
    """
    ds = 1.0 / steps
    n = v.size
    r = np.empty(n, dtype=complex)
    t = np.empty(n - 1, dtype=complex)
    # Both bands in ztbsv storage with leading dimension 4, in Fortran
    # order so that ztbsv does not copy them, share one buffer. Column j of
    # U U~ (upper) is bands[4j:4j+3]: its second and first superdiagonal
    # entries, then the unit diagonal. Column j of L~ L (lower) starts one
    # entry later: the unit diagonal, then its first and second
    # subdiagonal entries. Unit diagonals are never read (diag=1), so each
    # band's entries sit where the other has nothing to read.
    bands = np.zeros(4 * n + 1, dtype=complex)
    upper_band = bands[:-1].reshape(n, 4).T
    lower_band = bands[1:].reshape(n, 4).T

    for diag, upper in entries:
        if not (np.isfinite(diag).all() and np.isfinite(upper).all()):
            raise ValueError("Hamiltonian bands must not contain infs or NaNs")
        diag_w, l, u = ldu(diag, upper, ds)
        _require_pivots(diag_w)
        diag_p, lt, ut = uld(diag, upper, ds)
        _require_pivots(diag_p)
        del diag, upper
        # w = L^-1 psi: L's subdiagonal goes where L~ L's first one then
        # goes, and ztbsv with k = 1 reads nothing else of the band
        lower_band[1, :-1] = l
        v = ztbsv(1, lower_band, v, lower=1, diag=1, overwrite_x=1)
        np.add(l, lt, out=lower_band[1, :-1])
        np.multiply(lt[1:], l[:-1], out=lower_band[2, :-2])
        np.add(u, ut, out=upper_band[1, 1:])
        np.multiply(u[:-1], ut[1:], out=upper_band[0, 2:])
        # diagonals of 2 D^-1 - U L and 2 D~^-1 - L~ U~, over the pivots
        np.divide(2.0, diag_w, out=diag_w)
        diag_w -= 1.0
        diag_w[:-1] -= np.multiply(u, l, out=t)
        np.divide(2.0, diag_p, out=diag_p)
        diag_p -= 1.0
        diag_p[1:] -= np.multiply(lt, ut, out=t)
        # psi = U~ p after a step from w, psi = L w after a step from p
        legs = ((diag_w, u, l, upper_band, complex(ut[0]), 0.0),
                (diag_p, ut, lt, lower_band, 0.0, complex(l[-1])))
        v, r = _substeps(v, r, t, legs, steps)
        if steps & 1:  # psi = U~ p
            v[:-1] += np.multiply(ut, v[1:], out=t)
        else:  # psi = L w
            v[1:] += np.multiply(l, v[:-1], out=t)
        # free this entry's factors before the next entry makes its own
        del diag_w, l, u, diag_p, lt, ut, legs
    return v


def _hamiltonian_bands(g: QuadraticGenerator, x: np.ndarray, h: float):
    """Tridiagonal Hermitian discretization of (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2).

    p^2 by central second differences; the cross term by the symmetrized
    first derivative -(i/2)(x d/dx + d/dx x) averaged on the midpoints,
    which keeps the matrix exactly Hermitian. Returns the real diagonal
    and the complex superdiagonal. An entry that overflows is left
    infinite or NaN, without a warning, for the caller's finiteness check.
    """
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
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
    pivoting (every pivot has real part >= 1, see ``ldu``):
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
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = psi0.x
    h = psi0.spacing
    entries = (_hamiltonian_bands(g, x, h) for g in g_schedule)
    return replace(psi0, amplitudes=_evolve(entries, psi0.amplitudes.copy(), steps))
