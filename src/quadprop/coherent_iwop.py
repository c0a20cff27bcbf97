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
    "QuadraticFormIntegral",
    "overlap_position",
    "sandwich",
    "gaussian_integral",
    "kernel_via_iwop",
]

_PI_QUARTER = np.pi ** (-0.25)


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


@dataclass(frozen=True)
class QuadraticFormIntegral:
    """Multidimensional Gaussian integral int d^n x exp(-x^T M x / 2 + J^T x + const).

    M is a complex symmetric matrix stored as paired real/imaginary
    parts of each entry; J a complex vector; convergence requires the
    real part of M to be positive definite (checked when integrating).
    """

    matrix: np.ndarray
    linear: np.ndarray
    constant: complex = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        j = np.asarray(self.linear, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if j.shape != (m.shape[0],):
            raise ValueError(f"linear term has shape {j.shape}, expected ({m.shape[0]},)")
        asym = np.abs(m - m.T).max()
        if asym > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError(f"matrix must be symmetric, asymmetry {asym:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "linear", j)


def _sqrt_det_posdef_real_part(m: np.ndarray) -> complex:
    """sqrt(det M) for complex symmetric M with positive definite real part.

    Analytic continuation from the real case: with R = Re M,
    det M = det R * prod(1 + i lam_k) over the eigenvalues lam_k of
    R^{-1/2} Im(M) R^{-1/2}; each factor lies in the right half-plane,
    so its principal square root varies continuously. Taking the
    principal root factor by factor (rather than of the scalar det)
    keeps the branch correct even when det M itself winds past the cut.
    """
    w, v = np.linalg.eigh(m.real)
    if w[0] <= 0.0:
        raise NonConvergentError(
            f"real part of the quadratic form is not positive definite "
            f"(min eigenvalue {w[0]:.3e})"
        )
    rinv_half = (v / np.sqrt(w)) @ v.T
    s = rinv_half @ m.imag @ rinv_half
    lam = np.linalg.eigvalsh(0.5 * (s + s.T))
    out = math.prod(np.sqrt(w).tolist())
    for l in lam:
        out = out * cmath.sqrt(1.0 + 1j * l)
    return out


def gaussian_integral(q: QuadraticFormIntegral) -> complex:
    """Closed-form value (2 pi)^{n/2} / sqrt(det M) * exp(J^T M^{-1} J / 2 + const).

    Checks positive definiteness of Re(M) by factorization and raises
    NonConvergentError when the integral does not converge.
    """
    m = q.matrix
    n = m.shape[0]
    try:
        np.linalg.cholesky(m.real)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError(
            "real part of the quadratic form is not positive definite"
        ) from exc
    sqrt_det = _sqrt_det_posdef_real_part(m)
    quad = 0.5 * q.linear @ np.linalg.solve(m, q.linear)
    return (2.0 * np.pi) ** (n / 2.0) / sqrt_det * cmath.exp(quad + q.constant)


def kernel_via_iwop(g: QuadraticGenerator, q: float, Q: float) -> complex:
    """Kernel value K(Q, q) assembled through the coherent-state route.

    Builds the 4-dimensional quadratic form of the integrand
    <Q|z1><z1|U|z2><z2|q> over (Re z1, Im z1, Re z2, Im z2), integrates
    in closed form with the d^2z/pi completeness measure, and returns a
    value equal to the direct kernel within 1e-10 wherever the kernel
    is nonsingular.
    """
    m_abcd = abcd_from_generator(g)
    if abs(m_abcd.b) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, kernel degenerates to a delta function", matrix=m_abcd
        )
    f = normal_order(g)
    ros = f.r / f.s
    rcs = f.r.conjugate() / f.s
    inv_s = 1.0 / f.s

    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 3.0 + ros
    m[1, 1] = 1.0 - ros
    m[2, 2] = 3.0 - rcs
    m[3, 3] = 1.0 + rcs
    m[0, 1] = m[1, 0] = 1j * (1.0 - ros)
    m[2, 3] = m[3, 2] = -1j * (1.0 + rcs)
    m[0, 2] = m[2, 0] = -inv_s
    m[1, 3] = m[3, 1] = -inv_s
    m[0, 3] = m[3, 0] = -1j * inv_s
    m[1, 2] = m[2, 1] = 1j * inv_s

    rt2 = np.sqrt(2.0)
    j = np.array([rt2 * Q, 1j * rt2 * Q, rt2 * q, -1j * rt2 * q], dtype=complex)

    integral = gaussian_integral(
        QuadraticFormIntegral(matrix=m, linear=j, constant=-0.5 * (q * q + Q * Q))
    )
    # Measure 1/pi^2, two overlaps pi^{-1/4} each, and 1/sqrt(s) from the
    # coherent matrix element.
    return integral * np.pi ** (-2.5) / cmath.sqrt(f.s)
