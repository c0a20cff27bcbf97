"""Coherent-state route to the propagator kernel.

Sandwiching the normal-ordered operator between coherent states gives a
closed-form matrix element; inserting the completeness relation
int d^2z/pi |z><z| = 1 twice and projecting on position eigenstates
turns the kernel into a 4-real-dimensional Gaussian integral over
(Re z1, Im z1, Re z2, Im z2). Evaluating that integral in closed form
reproduces the kernel of ``propagator.kernel_from_sr`` and serves as an
independent second route for cross-validation.

The pieces are ``overlap_position`` (<z|x>), ``sandwich`` (<z1|U|z2>)
and ``gaussian_integral``. The matrix element's r/s, 1/s, r*/s and
principal sqrt(s) come from ``_element`` alone, for ``sandwich`` and
``kernel_via_iwop`` both. ``verify`` checks ``sandwich`` against the
truncated-Fock unitary and ``kernel_via_iwop`` against ``kernel_from_sr``.

The completeness measure implemented is the standard d^2z/pi; it is the
one under which this route reproduces the position-space kernel (see
the completeness quadrature check in the verify suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentError, require_off_caustic
from .lie_core import NormalOrderFactors, QuadraticGenerator, normal_order

__all__ = [
    "CoherentLabel",
    "overlap_position",
    "sandwich",
    "gaussian_integral",
    "kernel_via_iwop",
]

_PI_QUARTER = np.pi ** (-0.25)
# The measure 1/pi^2 times the two overlaps' pi^{-1/4} each.
_PI_M52 = np.pi ** (-2.5)
_RT2 = math.sqrt(2.0)
_TWO_PI_SQ = (2.0 * math.pi) ** 2.0
_INDEFINITE = "real part of the quadratic form is not positive definite"


@dataclass(frozen=True)
class CoherentLabel:
    """Complex label z of a coherent state (eigenvalue of the annihilator)."""

    z: complex

    def __post_init__(self):
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
            raise ValueError(f"coherent label must be finite, got {self.z!r}")


def overlap_position(z: CoherentLabel, x):
    """Coherent-position overlap <z|x>.

    <z|x> = pi^{-1/4} exp(-x^2/2 + sqrt(2) x z* - (z*)^2/2 - |z|^2/2),
    evaluated for z = a + ib as pi^{-1/4} exp(-(x - sqrt(2) a)^2/2
    + i b (a - sqrt(2) x)), which cancels nothing and overflows only where
    the phase b (a - sqrt(2) x) does; x may be a scalar or an ndarray.
    """
    a, b = z.z.real, z.z.imag
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # far out the square overflows and the exponential is exactly 0
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - _RT2 * a
        out = _PI_QUARTER * np.exp(-0.5 * d * d + 1j * b * (a - _RT2 * x))
    return complex(out[0]) if scalar else out


def _element(f: NormalOrderFactors) -> tuple:
    """(r/s, 1/s, r*/s, sqrt(s)): the exponent coefficients and prefactor
    root of <z1|U|z2>. sqrt(s) is the principal root, the route's one
    branch choice, so a change of branch is made here alone.
    """
    return f.r / f.s, 1.0 / f.s, f.r.conjugate() / f.s, cmath.sqrt(f.s)


def sandwich(z1: CoherentLabel, z2: CoherentLabel, f: NormalOrderFactors) -> complex:
    """Coherent-state matrix element <z1|U|z2> of the normal-ordered operator.

    (1/sqrt(s)) exp(-(r/2s) z1*^2 + z1* z2 / s + (r*/2s) z2^2
                    - |z1|^2/2 - |z2|^2/2)

    with r/s, 1/s, r*/s and the principal sqrt(s) from ``_element``; s
    never vanishes (|s| >= 1).
    """
    f.require_unitary()
    ros, inv_s, rcs, root_s = _element(f)
    a = z1.z.conjugate()
    b = z2.z
    expo = (
        -0.5 * ros * a * a
        + a * b * inv_s
        + 0.5 * rcs * b * b
        - 0.5 * abs(z1.z) ** 2
        - 0.5 * abs(z2.z) ** 2
    )
    return cmath.exp(expo) / root_s


def gaussian_integral(matrix: list, linear: list, constant=0.0) -> complex:
    """Closed form (2 pi)^2 / sqrt(det M) * exp(J^T M^{-1} J / 2 + const)
    of int d^4 x exp(-x^T M x / 2 + J^T x + const), for Re M > 0.

    ``matrix`` is the complex symmetric 4x4 M as four row lists, of which
    only the lower triangle is read, and ``linear`` the complex 4-vector J
    as a list. Neither is modified. Another size fails on unpacking with
    a ValueError: the coherent-state integrand is the only form built.

    One sweep of symmetric elimination without pivoting, in plain Python
    and written out for four dimensions, factors Re M and M side by side.
    The real LDL^T of Re M is the convergence check: a pivot that is not
    > 0 raises NonConvergentError. The complex LDL^T of M, with
    y = L^{-1} J substituted in the same sweep, gives det M = prod d_k and
    J^T M^{-1} J = sum y_k^2 / d_k. Step k divides column k below the
    diagonal by the pivots and updates the trailing lower triangle, row by
    row, entry by entry, in that order.

    Branch of sqrt(det M): the Hermitian part of the complex symmetric M
    is Re M > 0, and every Schur complement inherits a positive definite
    Hermitian part: for S = M22 - M21 M11^-1 M12 and any x != 0,
    z = (-M11^-1 M12 x, x) gives Re x^H S x = Re z^H M z > 0. Each pivot
    d_k is the leading entry of such a complement, so it lies in the open
    right half-plane, and stays there along
    M(t) = Re M + i t Im M for t in [0, 1]: no pivot vanishes, and
    prod sqrt(d_k) over principal roots is the continuation of the
    positive root at t = 0, even where det M winds past the cut.
    """
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = matrix
    y0, y1, y2, y3 = linear
    r00, r10, r11, r20, r21, r22, r30, r31, r32, r33 = (
        a00.real, a10.real, a11.real, a20.real, a21.real, a22.real,
        a30.real, a31.real, a32.real, a33.real)

    if not r00 > 0.0:
        raise NonConvergentError(_INDEFINITE)
    sqrt_det = 1.0 * cmath.sqrt(a00)
    quad = 0.0 + y0 * y0 / a00
    lr, lc = r10 / r00, a10 / a00
    y1 -= lc * y0
    r11 -= lr * r10
    a11 -= lc * a10
    lr, lc = r20 / r00, a20 / a00
    y2 -= lc * y0
    r21 -= lr * r10
    a21 -= lc * a10
    r22 -= lr * r20
    a22 -= lc * a20
    lr, lc = r30 / r00, a30 / a00
    y3 -= lc * y0
    r31 -= lr * r10
    a31 -= lc * a10
    r32 -= lr * r20
    a32 -= lc * a20
    r33 -= lr * r30
    a33 -= lc * a30

    if not r11 > 0.0:
        raise NonConvergentError(_INDEFINITE)
    sqrt_det *= cmath.sqrt(a11)
    quad += y1 * y1 / a11
    lr, lc = r21 / r11, a21 / a11
    y2 -= lc * y1
    r22 -= lr * r21
    a22 -= lc * a21
    lr, lc = r31 / r11, a31 / a11
    y3 -= lc * y1
    r32 -= lr * r21
    a32 -= lc * a21
    r33 -= lr * r31
    a33 -= lc * a31

    if not r22 > 0.0:
        raise NonConvergentError(_INDEFINITE)
    sqrt_det *= cmath.sqrt(a22)
    quad += y2 * y2 / a22
    lr, lc = r32 / r22, a32 / a22
    y3 -= lc * y2
    r33 -= lr * r32
    a33 -= lc * a32

    if not r33 > 0.0:
        raise NonConvergentError(_INDEFINITE)
    sqrt_det *= cmath.sqrt(a33)
    quad += y3 * y3 / a33
    return _TWO_PI_SQ / sqrt_det * cmath.exp(0.5 * quad + constant)


def kernel_via_iwop(g: QuadraticGenerator, q: float, Q: float) -> complex:
    """Kernel value K(Q, q) assembled through the coherent-state route.

    Builds the 4-dimensional quadratic form of the integrand
    <Q|z1><z1|U|z2><z2|q> over (Re z1, Im z1, Re z2, Im z2), integrates
    in closed form with the d^2z/pi completeness measure, and returns a
    value equal to the direct kernel within 1e-10 away from caustics.
    The caustic guard reads B = Im s - Im r. Below |B| of about 3e-8 the
    real part of the form is singular in double precision, and the
    integral raises NonConvergentError.

    (s, r) come from ``normal_order``, whose ``_flow`` returns the memoised
    flow when g is the generator object of the last call, as in a
    ``kernel --check`` after ``abcd_from_generator(g)``. The form goes to
    the 4-dimensional ``gaussian_integral`` as nested lists it leaves as
    they are.

    Where the form comes from, for z = x + iy:
    - each overlap, <Q|z1> and <z2|q>, gives -x^2 -+ ixy to its label's
      2x2 block, J = sqrt(2) (Q, iQ, q, -iq), the constant
      -(q^2 + Q^2)/2 and pi^{-1/4};
    - the matrix element, through ``_element``, gives each block its
      |z|^2/2 (the identity) and its r/s or r*/s term, the coupling block
      z1* z2 / s (the 1/s entries) and the prefactor 1/sqrt(s);
    - the measure d^2z1 d^2z2 / pi^2 gives 1/pi^2.
    The 16 entries are written out rather than integrated one label at a
    time: their rounding decides which near-caustic forms meet 1e-10.
    Unlike ``sandwich`` this does not call ``require_unitary``, whose
    absolute 1e-8 would refuse hyperbolic (s, r) whose kernel is right.
    """
    f = normal_order(g)
    require_off_caustic(f.s.imag - f.r.imag)
    ros, inv_s, rcs, root_s = _element(f)
    m01 = 1j * (1.0 - ros)
    m23 = -1j * (1.0 + rcs)
    m03 = -1j * inv_s
    m12 = 1j * inv_s
    m = [
        [3.0 + ros, m01, -inv_s, m03],
        [m01, 1.0 - ros, m12, -inv_s],
        [-inv_s, m12, 3.0 - rcs, m23],
        [m03, -inv_s, m23, 1.0 + rcs],
    ]
    j = [complex(_RT2 * Q), 1j * _RT2 * Q, complex(_RT2 * q), -1j * _RT2 * q]

    integral = gaussian_integral(m, j, -0.5 * (q * q + Q * Q))
    # Measure and overlaps (_PI_M52), and 1/sqrt(s) from the coherent
    # matrix element.
    return integral * _PI_M52 / root_s
