"""Independent brute-force oracles.

Two deliberately dumb routes that know nothing about the closed forms:

* a truncated Fock space where the evolution operator is built both as
  a single matrix exponential of the su(1,1) combination, read from the
  generator's coefficients, and as the three-factor normal-ordered
  product (both by ``symplectic._expm``), so the factorization parameters
  can be certified by direct matrix comparison. ``lie_core.normal_order``,
  which ``fock_unitary_ordered`` calls for the (s, r) under test, is the
  one closed-form function this module reads;
* a norm-preserving Crank-Nicolson grid solver for
  i dpsi/ds = (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2) psi,
  one unit of flow parameter per schedule entry, validating kernels and
  wavepacket convolution end to end. H is the pentadiagonal, exactly
  Hermitian fourth-order central-difference discretization, so the
  spatial error is O(h^4). A step of length tau applies the diagonal
  Pade (4,4) approximant of exp(-i tau H), whose time error is
  O(tau^8), in product form: four shifted Cayley sub-steps
  psi' = (s - i tau H) M^-1 psi = 2 s M^-1 psi - psi with
  M = s + i tau H, one for each of two conjugate pairs of shifts s. Each
  pair's product is unitary. An entry gets a number of steps in
  proportion to the norm of its generator, and factors M by a banded LU
  (``_cayley_lu``) once per shift, which every sub-step of the entry
  with that shift then reuses.

The grid solver calls LAPACK ``zgbtrf``/``zgbtrs`` and BLAS ``ztbsv``
through scipy's f2py wrappers. This module loads the two compiled
modules that hold them, ``scipy.linalg._fblas`` and
``scipy.linalg._flapack``, and not the ``scipy.linalg`` package.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
# the package alone, without its subpackages: its __init__ is where a scipy
# distribution initialises BLAS and LAPACK (and where Windows wheels add the
# directory of their bundled OpenBLAS), which the wrappers below link to
import scipy

from .errors import MAX_GRID_STEPS, BoundaryLeakError, GridWorkLimitError
from .lie_core import QuadraticGenerator, normal_order
from .propagator import GaussianWavepacket
from .symplectic import _expm


def _scipy_linalg_wrappers(name: str):
    """scipy.linalg's compiled f2py module ``name``, loaded without the scipy.linalg package.

    ``import scipy.linalg`` runs the package's ``__init__``, which loads
    about 300 further modules; the grid solver needs only three wrappers.
    The module is found in the scipy package's directory and loaded alone
    under its own name, as the import system would load it, so a later
    ``import scipy.linalg`` reuses it and re-exports the same function
    objects. Raises ImportError naming the directory searched if the
    module is not there.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


ztbsv = _scipy_linalg_wrappers("_fblas").ztbsv
zgbtrf = _scipy_linalg_wrappers("_flapack").zgbtrf
zgbtrs = _scipy_linalg_wrappers("_flapack").zgbtrs

__all__ = [
    "Grid",
    "MAX_GRID_STEPS",
    "fock_unitary_direct",
    "fock_unitary_ordered",
    "grid_evolve",
]

FOCK_DIM = 60


def _ladder() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """a, K+ = a^dag^2 / 2, K0 = (a^dag a + 1/2) / 2 and K- = a^2 / 2 on the
    lowest ``FOCK_DIM`` number states.

    <m|a|n> = sqrt(n) delta_{m,n-1}; the commutator [a, a^dag] equals
    the identity on the first FOCK_DIM - 1 levels (the last diagonal
    entry is a truncation artifact, as always).
    """
    a = np.diag(np.sqrt(np.arange(1, FOCK_DIM)), k=1).astype(complex)
    adag = a.conj().T
    return a, 0.5 * (adag @ adag), 0.5 * (adag @ a) + 0.25 * np.eye(FOCK_DIM), 0.5 * (a @ a)


def fock_unitary_direct(g: QuadraticGenerator) -> np.ndarray:
    """Single matrix exponential of tau K+ + i sigma K0 - tau* K- (truncated).

    tau = beta + i(alpha - gamma)/2 and sigma = -(alpha + gamma), in plain
    doubles. Computed by ``symplectic._expm`` on the lowest ``FOCK_DIM``
    levels. Trustworthy on levels well below ``FOCK_DIM`` for coefficient
    magnitudes up to ~1 (truncation-error regime).
    """
    _, k_plus, k_zero, k_minus = _ladder()
    tau = complex(g.beta, 0.5 * (g.alpha - g.gamma))
    gen = tau * k_plus - 1j * (g.alpha + g.gamma) * k_zero - tau.conjugate() * k_minus
    return _expm(gen)


def fock_unitary_ordered(g: QuadraticGenerator) -> np.ndarray:
    """Three-factor normal-ordered product exp(-(r/s)K+) diag exp((r*/s)K-).

    The middle factor is diagonal with entries s^{-(n+1/2)} on level n
    (principal branch of ln s); the nilpotent outer factors come from
    ``symplectic._expm``. Agreement with ``fock_unitary_direct``
    certifies the (s, r) closed form.
    """
    _, k_plus, _, k_minus = _ladder()
    f = normal_order(g)
    log_s = cmath.log(f.s)
    middle = np.diag(np.exp(-(np.arange(FOCK_DIM) + 0.5) * log_s))
    left = _expm(-(f.r / f.s) * k_plus)
    right = _expm((f.r.conjugate() / f.s) * k_minus)
    return left @ middle @ right


def _check_axis(x_min: float, x_max: float, n: int) -> None:
    """Raise ValueError unless n points on [x_min, x_max] make a ``Grid`` axis."""
    if n < 512 or (n & (n - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= 512, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"n_points must be <= sys.maxsize = {sys.maxsize}, got {n}")
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_max > x_min):
        raise ValueError("x_min and x_max must be finite with x_max > x_min, "
                         f"got {x_min!r} and {x_max!r}")
    h = (x_max - x_min) / (n - 1)
    if not (math.isfinite(h) and h * h > 0.0 and math.isfinite(1.0 / (h * h))):
        raise ValueError(f"grid spacing {h!r} must be finite with a finite 1/spacing^2")


@dataclass(frozen=True)
class Grid:
    """Uniform position grid carrying one-dimensional complex amplitudes.

    n_points, their size, must be a power of two >= 512.
    """

    x_min: float
    x_max: float
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        _check_axis(self.x_min, self.x_max, self.n_points)
        if self.amplitudes.ndim != 1:
            raise ValueError(f"amplitudes have shape {self.amplitudes.shape}, expected one axis")

    @property
    def n_points(self) -> int:
        return self.amplitudes.size

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @classmethod
    def from_wavepacket(cls, psi: GaussianWavepacket, x_min: float = -40.0, x_max: float = 40.0,
                        n_points: int = 4096) -> "Grid":
        _check_axis(x_min, x_max, n_points)  # before allocating the samples
        return cls(x_min, x_max, psi.evaluate(np.linspace(x_min, x_max, n_points)))

    def distance(self, values) -> float:
        """The L2 distance sqrt(h sum |amplitudes - values|^2) that evolve and verify report."""
        return math.sqrt(float(np.sum(np.abs(self.amplitudes - values) ** 2)) * self.spacing)

    def norm(self) -> float:
        return self.distance(0.0)


_EDGE_AMPLITUDE_LIMIT = 1e-6
# exp(z) ~ P(z) / P(-z) with P(z) = 1 + z/2 + 3 z^2/28 + z^3/84 + z^4/1680,
# the diagonal Pade (4,4) approximant, is the product of (s + z) / (s - z)
# over the four s that are minus the roots of P (W. van Dijk and F. M.
# Toyama, Phys. Rev. E 75 (2007) 036707). They are two conjugate pairs, and
# for real y each pair's product has modulus 1 at z = iy. All four factors
# commute, so ``grid_evolve`` applies one pair through a whole entry and
# then the other.
_PADE_SHIFTS = (
    (5.7924212056407445 - 1.7344682578690076j, 5.7924212056407445 + 1.7344682578690076j),
    (4.2075787943592555 - 5.314836083713505j, 4.2075787943592555 + 5.314836083713505j),
)


def _cayley_lu(diag: np.ndarray, up1: np.ndarray, up2: np.ndarray, shift: complex, tau: float,
               store: np.ndarray):
    """Factor the shifted Cayley matrix M = shift + i tau H in ``store``; return its solve.

    H has the bands ``(diag, up1, up2)`` of ``_hamiltonian_bands``, n
    entries on the diagonal. ``store`` is this shift's own complex storage
    of 7 n + 4 entries, which nothing else reads or writes. Its first 7 n
    hold M as a 7 x n Fortran-ordered array in LAPACK band storage, M[i, j]
    at ab[4 + i - j, j], and ``zgbtrf`` overwrites them with the partially
    pivoted factors: U in rows 0-4, using rows 0 and 1 for fill-in, and
    the multipliers L[j + k, j] at ab[4 + k, j] for k = 1, 2.

    Returns a function that overwrites a vector b with M^-1 b. Where no
    rows were exchanged, M = L U is solved by two BLAS band sweeps on the
    factors where they lie, each through a leading-dimension-7 view of
    ``store``: ``ztbsv`` over the unit lower L from 4 entries on
    (lower[k, j] = ab[4 + k, j], rows 1 and 2 the multipliers), and then
    over U from 2 entries on (upper[k, j] = ab[2 + k, j], rows 0-2 U's two
    superdiagonals and its diagonal). The fill-in rows 0 and 1 are zero
    then, so the U sweep reads 2 superdiagonals, not ``zgbtrs``'s 4. The
    views' last columns run into the 4 trailing entries of ``store``, in
    rows the sweeps never read. Where rows were exchanged, which no single
    sweep can undo, it solves with ``zgbtrs``; ordinary entries do so at
    small step counts (``grid_evolve`` of 1.0 -0.4 0.5 at 4096 points and
    1 step per unit of generator norm, 2 steps, exchanges rows on both
    shifts with a negative imaginary part). Reference ``zgbtrs`` applies L
    by one rank-1 update per row, which costs more than the whole sweep.

    Raises LinAlgError if U has a zero or non-finite diagonal.
    """
    n = diag.size
    ab, lower, upper = (store[k:7 * n + k].reshape(n, 7).T for k in (0, 4, 2))
    c = 1j * tau
    ab[2, 2:] = c * up2
    ab[3, 1:] = c * up1
    ab[4] = shift + c * diag
    # H is Hermitian, so M[j + k, j] = i tau conj(H[j, j + k])
    ab[5, :-1] = c * up1.conj()
    ab[6, :-2] = c * up2.conj()
    lu, piv, info = zgbtrf(ab, 2, 2, overwrite_ab=1)
    if info != 0 or not np.isfinite(lu[4]).all():
        raise np.linalg.LinAlgError("Crank-Nicolson matrix has a zero or non-finite pivot")
    # row j's pivot is one of rows j, j + 1 and j + 2 (0-based), so the
    # pivots are the identity exactly when they sum to 0 + 1 + ... + (n - 1)
    if piv.sum() != n * (n - 1) // 2:
        return lambda b: zgbtrs(lu, 2, 2, b, piv, overwrite_b=1)[0]

    def sweep(b: np.ndarray) -> np.ndarray:
        ztbsv(2, lower, b, lower=1, diag=1, overwrite_x=1)
        return ztbsv(2, upper, b, overwrite_x=1)

    return sweep


def _hamiltonian_bands(g: QuadraticGenerator, x: np.ndarray, h: float):
    """Pentadiagonal Hermitian discretization of (1/2)(alpha p^2 + beta (qp+pq) + gamma q^2).

    Fourth-order central differences (B. Fornberg, Math. Comp. 51 (1988)
    699): p^2 by -(-1, 16, -30, 16, -1)/(12 h^2), and the cross term as
    (XP + PX)/2 with P = -iD, where the antisymmetric first difference is
    D psi[k] = (psi[k-2] - 8 psi[k-1] + 8 psi[k+1] - psi[k+2])/(12 h). The
    matrix is exactly Hermitian. Returns the real diagonal and the complex
    first and second superdiagonals. Raises ValueError, without a numpy
    warning, if an entry overflows to inf or NaN.
    """
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.full(n, 1.25 * g.alpha / (h * h))
        diag += 0.5 * g.gamma * x * x
        up1 = np.full(n - 1, -g.alpha / (1.5 * h * h), dtype=complex)
        up2 = np.full(n - 2, g.alpha / (24.0 * h * h), dtype=complex)
        up1 -= 1j * g.beta * (x[:-1] + x[1:]) / (3.0 * h)
        up2 += 1j * g.beta * (x[:-2] + x[2:]) / (24.0 * h)
    if not (np.isfinite(diag).all() and np.isfinite(up1).all() and np.isfinite(up2).all()):
        raise ValueError("Hamiltonian bands must not contain infs or NaNs")
    return diag, up1, up2


def grid_evolve(g_schedule, psi0: Grid, steps: int) -> Grid:
    """Eighth-order Crank-Nicolson evolution of a grid state through a schedule.

    Each schedule entry g is one unit of flow parameter, split into
    n = max(1, ceil(steps * |g|)) steps of tau = 1/n, where |g| is the
    Euclidean norm of (alpha, beta, gamma): ``steps`` counts steps per unit
    of generator norm. A step applies the diagonal Pade (4,4) approximant
    of exp(-i tau H) as four shifted Cayley sub-steps
    psi' = (s - i tau H) M^-1 psi = 2 s M^-1 psi - psi, M = s + i tau H,
    one per shift of ``_PADE_SHIFTS``. The factors commute, so an entry
    runs its n steps with the first conjugate pair of shifts and then its n
    steps with the second. Each pair is exactly unitary for the Hermitian
    discretization used, so the norm is conserved to solver accuracy; one
    sub-step alone can scale a mode by up to about 2.7. The spatial error
    is O(h^4), the time error O(tau^8).

    Each entry builds H once and, for each pair, factors M once per shift
    by LAPACK's partially pivoted band LU; ``_cayley_lu`` holds the band
    layout and the solve. A sub-step then solves M y = 2 s psi and sets
    psi' = y - psi. Two band stores, one per shift of a pair, the
    state and the work vector are allocated once per call, after the
    schedule's steps are planned and before anything else, and the factors
    stay where they were computed.

    Every sub-step checks the state for infs and NaNs and its two edge
    amplitudes.

    Raises ValueError on non-finite amplitudes or coefficients,
    GridWorkLimitError if the schedule plans more than ``MAX_GRID_STEPS``
    steps, LinAlgError if a pivot is zero or non-finite, and
    BoundaryLeakError if edge amplitude exceeds 1e-6.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    # an int beyond the float range counts as infinitely many steps per
    # unit, which a zero entry (inf * 0 is NaN) does not use; min() keeps an
    # infinite product out of ceil, and the sum still passes the limit then
    try:
        per_unit = float(steps)
    except OverflowError:
        per_unit = math.inf
    plan = []
    for g in g_schedule:
        norm = math.hypot(g.alpha, g.beta, g.gamma)
        n_e = math.ceil(min(per_unit * norm, MAX_GRID_STEPS + 1)) if norm else 1
        plan.append((g, n_e))
    if sum(n_e for _, n_e in plan) > MAX_GRID_STEPS:
        raise GridWorkLimitError(
            f"the schedule plans more than {MAX_GRID_STEPS} Pade steps at {steps} steps "
            "per unit of generator norm"
        )
    n = psi0.n_points
    # one allocation, made before any other array, for the band storage of
    # each shift of a pair (7 n + 4 entries, see _cayley_lu), the state and
    # the work vector: separate arrays left more heap resident
    span = 7 * n + 4
    buf = np.zeros(2 * span + 2 * n, dtype=complex)
    stores = buf[:-2 * n].reshape(2, span)
    psi, work = buf[-2 * n:].reshape(2, n)
    psi[:] = psi0.amplitudes
    x, h = psi0.x, psi0.spacing
    for g, n_e in plan:
        H = _hamiltonian_bands(g, x, h)
        for pair in _PADE_SHIFTS:
            solves = [(shift, _cayley_lu(*H, shift, 1.0 / n_e, store))
                      for shift, store in zip(pair, stores)]
            for _ in range(n_e):
                for shift, solve in solves:
                    # a sum that overflows is re-checked entry by entry
                    if not (cmath.isfinite(psi.sum()) or np.isfinite(psi).all()):
                        raise ValueError("grid amplitudes must not contain infs or NaNs")
                    np.multiply(psi, 2.0 * shift, out=work)
                    work = solve(work)
                    work -= psi
                    psi, work = work, psi
                    edge = max(abs(psi[0]), abs(psi[-1]))
                    if edge > _EDGE_AMPLITUDE_LIMIT:
                        raise BoundaryLeakError(
                            f"edge amplitude {edge:.3e} exceeds {_EDGE_AMPLITUDE_LIMIT:.0e}; "
                            "widen the grid"
                        )
    # a copy, so that the buffer is freed on return
    return replace(psi0, amplitudes=psi.copy())
