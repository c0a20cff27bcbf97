"""The Crank-Nicolson stepping behind ``oracle.grid_evolve``.

A separate module, imported on the first ``grid_evolve`` call, so that
processes which never evolve a grid neither compile it nor load scipy.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.linalg.blas import ztbsv

from .errors import BoundaryLeakError

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


def evolve(entries, v: np.ndarray, steps: int) -> np.ndarray:
    """Step the amplitudes ``v`` in place through the schedule entries.

    ``entries`` yields each entry's Hamiltonian bands (real diagonal,
    complex superdiagonal); see ``oracle.grid_evolve`` for the scheme,
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
