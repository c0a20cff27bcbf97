"""Coherent-state route to the propagator kernel.

Sandwiching the normal-ordered operator between coherent states gives a
closed-form matrix element; inserting the completeness relation
int d^2z/pi |z><z| = 1 twice and projecting on position eigenstates
turns the kernel into a 4-real-dimensional Gaussian integral over
(Re z1, Im z1, Re z2, Im z2). Evaluating that integral in closed form
reproduces the kernel of ``propagator.kernel_from_sr`` and serves as an
independent second route for cross-validation.

The completeness measure implemented is the standard d^2z/pi; it is the
one under which this route reproduces the position-space kernel (see
the completeness quadrature check in the verify suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FOCAL_TOL, FocalPointError, NonConvergentError
from .lie_core import NormalOrderFactors, QuadraticGenerator, normal_order
from .symplectic import abcd_from_generator

__all__ = [
    "CoherentLabel",
    "overlap_position",
    "sandwich",
    "gaussian_integral",
    "kernel_via_iwop",
]

_PI_QUARTER = np.pi ** (-0.25)
_RT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CoherentLabel:
    """Complex label z of a coherent state (eigenvalue of the annihilator)."""

    z: complex

    def __post_init__(self):
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
            raise ValueError(f"coherent label must be finite, got {self.z!r}")


def overlap_position(z: CoherentLabel, x):
    """Coherent-position overlap <z|x>.

    <z|x> = pi^{-1/4} exp(-x^2/2 + sqrt(2) x z* - (z*)^2/2 - |z|^2/2);
    x may be a scalar or an ndarray.
    """
    zc = z.z.conjugate()
    const = -0.5 * zc * zc - 0.5 * abs(z.z) ** 2
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # far out x * x overflows and the exponential is exactly 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = _PI_QUARTER * np.exp(-0.5 * x * x + np.sqrt(2.0) * x * zc + const)
    return complex(out[0]) if scalar else out


def sandwich(z1: CoherentLabel, z2: CoherentLabel, f: NormalOrderFactors) -> complex:
    """Coherent-state matrix element <z1|U|z2> of the normal-ordered operator.

    (1/sqrt(s)) exp(-(r/2s) z1*^2 + z1* z2 / s + (r*/2s) z2^2
                    - |z1|^2/2 - |z2|^2/2)

    with the principal branch of sqrt(s); s never vanishes (|s| >= 1).
    """
    f.require_unitary()
    a = z1.z.conjugate()
    b = z2.z
    expo = (
        -0.5 * (f.r / f.s) * a * a
        + a * b / f.s
        + 0.5 * (f.r.conjugate() / f.s) * b * b
        - 0.5 * abs(z1.z) ** 2
        - 0.5 * abs(z2.z) ** 2
    )
    return cmath.exp(expo) / cmath.sqrt(f.s)


def gaussian_integral(matrix: list, linear: list, constant=0.0) -> complex:
    """Closed form (2 pi)^{n/2} / sqrt(det M) * exp(J^T M^{-1} J / 2 + const)
    of int d^n x exp(-x^T M x / 2 + J^T x + const), for Re M > 0.

    ``matrix`` is the complex symmetric M as n row lists and ``linear``
    the complex vector J as a list; the sweep overwrites both.

    One sweep of symmetric elimination without pivoting, in plain Python,
    factors Re M and M side by side. The real LDL^T of Re M is the
    convergence check: a pivot that is not > 0 raises NonConvergentError.
    The complex LDL^T of M, with y = L^{-1} J substituted in the same loop,
    gives det M = prod d_k and J^T M^{-1} J = sum y_k^2 / d_k.

    Branch of sqrt(det M): the Hermitian part of the complex symmetric M
    is Re M > 0, and every Schur complement inherits a positive definite
    Hermitian part (the argument of ``_cayley.ldu``). So each pivot
    d_k lies in the open right half-plane, and stays there along
    M(t) = Re M + i t Im M for t in [0, 1]: no pivot vanishes, and
    prod sqrt(d_k) over principal roots is the continuation of the
    positive root at t = 0, even where det M winds past the cut.
    """
    a, y = matrix, linear
    re = [[z.real for z in row] for row in a]
    n = len(a)
    sqrt_det = 1.0
    quad = 0.0
    for k in range(n):
        p = re[k][k]
        if not p > 0.0:
            raise NonConvergentError(
                "real part of the quadratic form is not positive definite"
            )
        d = a[k][k]
        yk = y[k]
        sqrt_det *= cmath.sqrt(d)
        quad += yk * yk / d
        for i in range(k + 1, n):
            ri, ai = re[i], a[i]
            lr = ri[k] / p
            lc = ai[k] / d
            y[i] -= lc * yk
            # Update the lower triangle of the trailing block; column k
            # below the diagonal is read, never written, in this step.
            for j in range(k + 1, i + 1):
                ri[j] -= lr * re[j][k]
                ai[j] -= lc * a[j][k]
    return (2.0 * math.pi) ** (n / 2.0) / sqrt_det * cmath.exp(0.5 * quad + constant)


def kernel_via_iwop(g: QuadraticGenerator, q: float, Q: float) -> complex:
    """Kernel value K(Q, q) assembled through the coherent-state route.

    Builds the 4-dimensional quadratic form of the integrand
    <Q|z1><z1|U|z2><z2|q> over (Re z1, Im z1, Re z2, Im z2), integrates
    in closed form with the d^2z/pi completeness measure, and returns a
    value equal to the direct kernel within 1e-10 wherever the kernel
    is nonsingular.

    The focal check reads B = Im s - Im r from the factors; only a focal
    generator pays for ``abcd_from_generator``, whose matrix the
    FocalPointError carries.
    """
    f = normal_order(g)
    if abs(f.s.imag - f.r.imag) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, kernel degenerates to a delta function",
            matrix=abcd_from_generator(g),
        )
    ros = f.r / f.s
    rcs = f.r.conjugate() / f.s
    inv_s = 1.0 / f.s
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
    # Measure 1/pi^2, two overlaps pi^{-1/4} each, and 1/sqrt(s) from the
    # coherent matrix element.
    return integral * np.pi ** (-2.5) / cmath.sqrt(f.s)
