"""Gaussian propagator kernels and their classical generating function.

The transition amplitude of a quadratic-Hamiltonian unitary between
position eigenstates is the Gaussian

    K(Q, q) = prefactor * exp(coef_qQ*q*Q + coef_qq*q^2 + coef_QQ*Q^2),

built here both from the normal-ordered factors (s, r) and from the
symplectic ABCD matrix, where it takes the form

    K(Q, q) = sqrt(1/(2 pi i B)) * exp(-i W(q, Q)),
    W(q, Q) = qQ/B - (A/2B) q^2 - (D/2B) Q^2.

W is a classical type-1 generating function: p = dW/dq, P = -dW/dQ
reproduce exactly the linear map (Q, P) = (Aq + Bp, Cq + Dp), and
``kernel_from_abcd`` is built from ``generating_function``'s coefficients.
Kernels degenerate to delta functions at focal points (|B| < 1e-12 on
every route), which raise FocalPointError. Closed form Gaussian
integration applies kernels to wavepackets and composes two kernels.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentError, require_off_caustic
from .lie_core import NormalOrderFactors, QuadraticGenerator
from .symplectic import AbcdMatrix

__all__ = [
    "GaussianKernel",
    "GeneratingFunctionW",
    "GaussianWavepacket",
    "ComplexGaussian",
    "kernel_from_sr",
    "kernel_from_abcd",
    "generating_function",
    "classical_map_from_w",
    "convolve",
    "compose_kernels",
    "named_generator",
]

# e^{-i pi/4} and e^{+i pi/4}, the prefactor phases of ``kernel_from_abcd``
# for B > 0 and B < 0.
_PHASE_B_POSITIVE = cmath.exp(1j * (-np.pi / 4.0))
_PHASE_B_NEGATIVE = cmath.exp(1j * (np.pi / 4.0))


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian position-space kernel K(Q, q), evaluated at one point (q, Q).

    ``K(Q, q) = prefactor * exp(coef_qQ*q*Q + coef_qq*q^2 + coef_QQ*Q^2)``
    with q the initial and Q the final coordinate. For kernels built
    from a symplectic matrix the exponent coefficients are purely
    imaginary: coef_qQ = -i/B, coef_qq = iA/(2B), coef_QQ = iD/(2B),
    and |prefactor| = 1/sqrt(2 pi |B|).
    """

    prefactor: complex
    coef_qQ: complex
    coef_qq: complex
    coef_QQ: complex

    def evaluate(self, q: float, Q: float) -> complex:
        """K(Q, q) at one real pair, in Python ``complex`` arithmetic.

        q and Q are anything ``float`` accepts: ``float``, ``int``, a numpy
        real scalar or a 0-d array. An array of several points raises
        TypeError. Where ``cmath.exp`` cannot take the exponent (its real
        part overflows exp, or its imaginary part is infinite) the value
        is NaN, without an exception or a warning.
        """
        q, Q = float(q), float(Q)
        expo = self.coef_qQ * q * Q + self.coef_qq * q * q + self.coef_QQ * Q * Q
        try:
            return self.prefactor * cmath.exp(expo)
        except (OverflowError, ValueError):
            return complex(math.nan, math.nan)


@dataclass(frozen=True)
class GeneratingFunctionW:
    """Classical generating function W(q, Q) = qQ/B - (A/2B) q^2 - (D/2B) Q^2.

    Stored as the three real coefficients 1/B, A/(2B), D/(2B); A, B, D
    (and C through AD - BC = 1) are recoverable via :meth:`to_abcd`.
    """

    inv_b: float
    a_over_2b: float
    d_over_2b: float

    def evaluate(self, q: float, Q: float) -> float:
        return q * Q * self.inv_b - self.a_over_2b * q * q - self.d_over_2b * Q * Q

    def to_abcd(self) -> AbcdMatrix:
        """Reconstruct the source symplectic matrix (C fixed by AD - BC = 1)."""
        b = 1.0 / self.inv_b
        a = 2.0 * self.a_over_2b * b
        d = 2.0 * self.d_over_2b * b
        return AbcdMatrix(a=a, b=b, c=(a * d - 1.0) / b, d=d)


@dataclass(frozen=True)
class GaussianWavepacket:
    """Normalized Gaussian wavepacket with real center, momentum and width.

    psi(q) = (pi width^2)^(-1/4)
             * exp(-(q - center_q)^2 / (2 width^2) + i center_p q + i phase)
    """

    center_q: float
    center_p: float
    width: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        for name in ("center_q", "center_p", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def to_complex(self) -> "ComplexGaussian":
        """Raises ValueError if width^2 underflows, center_q^2 or center_q/width^2
        overflows, or the amplitude or its factor e^{-center_q^2/(2 width^2)}
        is below the normal range (|center_q|/width above about 37.6).
        """
        w2 = self.width * self.width
        try:
            quad = complex(-0.5 / w2, 0.0)
            lin = complex(self.center_q / w2, self.center_p)
            decay = cmath.exp(complex(-0.5 * self.center_q**2 / w2, self.phase))
            amp = (np.pi * w2) ** (-0.25) * decay
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot sample {self}: {exc}") from exc
        if not (cmath.isfinite(quad) and cmath.isfinite(lin)):
            raise ValueError(f"cannot sample {self}: its exponent is not finite")
        # both must be normal: else amp is 0 and amp * exp(quad x^2 + lin x) is
        # 0 * inf near the center, or, with a narrow packet's (pi width^2)^(-1/4)
        # of up to 1e77, amp is normal but the exp overflows there
        tiny = sys.float_info.min
        if abs(decay) < tiny or abs(amp) < tiny:
            raise ValueError(f"cannot sample {self}: its amplitude underflows")
        return ComplexGaussian(quad=quad, lin=lin, amp=amp)

    def evaluate(self, x):
        return self.to_complex().evaluate(x)


@dataclass(frozen=True)
class ComplexGaussian:
    """General normalizable Gaussian amp * exp(quad*x^2 + lin*x).

    The closed-form image of a wavepacket under a Gaussian kernel: the
    center and width become complex, so the state is kept in raw
    quadratic-exponent form. Requires Re(quad) < 0.
    """

    quad: complex
    lin: complex
    amp: complex

    def __post_init__(self):
        if not self.quad.real < 0.0:
            raise ValueError(f"Re(quad) must be negative, got {self.quad.real!r}")

    def evaluate(self, x):
        """The amplitude at the real points x, any array-like (0-d gives a numpy scalar)."""
        x = np.asarray(x, dtype=float)
        # far out x * x overflows and the exponential is exactly 0; np.multiply, not *,
        # so that a 0-d x rounds as an array does (a numpy complex scalar's * differs)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.multiply(self.amp, np.exp(self.quad * x * x + self.lin * x))

    def norm(self) -> float:
        """L2 norm, exactly: |amp| sqrt(sqrt(pi/u) e^{v^2/u}) with u = -2 Re quad, v = Re lin."""
        u = -2.0 * self.quad.real
        v = self.lin.real
        return abs(self.amp) * math.sqrt(math.sqrt(math.pi / u) * math.exp(v * v / u))

    def mean_position(self) -> float:
        return -self.lin.real / (2.0 * self.quad.real)

    def mean_momentum(self) -> float:
        return 2.0 * self.quad.imag * self.mean_position() + self.lin.imag


def kernel_from_sr(f: NormalOrderFactors) -> GaussianKernel:
    """Kernel directly from the normal-ordered factors (s, r).

    With E = s - s* - r + r* (= 2iB):

        prefactor = sqrt(1/(pi E))            (principal branch)
        coef_qQ   = 2/E
        coef_qq   = -(s + s* - r - r*)/(2E)
        coef_QQ   = -(s + s* + r + r*)/(2E)

    Raises FocalPointError when |B| = |Im s - Im r| < 1e-12.
    """
    f.require_unitary()
    require_off_caustic(f.s.imag - f.r.imag)
    e = f.s - f.s.conjugate() - f.r + f.r.conjugate()
    plus = f.s + f.s.conjugate()
    rsum = f.r + f.r.conjugate()
    return GaussianKernel(cmath.sqrt(1.0 / (np.pi * e)), 2.0 / e,
                          -(plus - rsum) / (2.0 * e), -(plus + rsum) / (2.0 * e))


def _w_coefficients(m: AbcdMatrix) -> tuple[float, float, float]:
    """1/B, A/(2B), D/(2B) of ``generating_function(m)``, without building it."""
    require_off_caustic(m.b)
    return 1.0 / m.b, 0.5 * m.a / m.b, 0.5 * m.d / m.b


def kernel_from_abcd(m: AbcdMatrix) -> GaussianKernel:
    """Kernel sqrt(1/(2 pi i B)) exp(-i W(q, Q)) from the symplectic matrix.

    The exponent coefficients are -i times those of ``generating_function(m)``.
    The prefactor branch is pinned explicitly: e^{-i pi/4}/sqrt(2 pi B)
    for B > 0 and e^{+i pi/4}/sqrt(2 pi |B|) for B < 0. No phase
    tracking across caustics is attempted.
    """
    m.require_symplectic()
    inv_b, a_over_2b, d_over_2b = _w_coefficients(m)
    mag = 1.0 / math.sqrt(2.0 * np.pi * abs(m.b))
    phase = _PHASE_B_POSITIVE if m.b > 0 else _PHASE_B_NEGATIVE
    return GaussianKernel(mag * phase, -1j * inv_b, 1j * a_over_2b, 1j * d_over_2b)


def generating_function(m: AbcdMatrix) -> GeneratingFunctionW:
    """Classical generating function of the map; raises at focal points."""
    return GeneratingFunctionW(*_w_coefficients(m))


def classical_map_from_w(w: GeneratingFunctionW, q: float, Q: float) -> tuple[float, float]:
    """Momenta from the classical prescription p = dW/dq, P = -dW/dQ.

    Returns (p, P) such that (Q, P) is the image of (q, p) under the
    source linear map.
    """
    p = Q * w.inv_b - 2.0 * w.a_over_2b * q
    P = -q * w.inv_b + 2.0 * w.d_over_2b * Q
    return p, P


def _integrate_out(a: complex, u: complex, v: complex):
    """sqrt(pi/-a) and the y^2, y z, z^2 coefficients of the exponent of
    int exp(a x^2 + (u y + v z) x) dx = sqrt(pi/-a) exp(-(u y + v z)^2 / 4a), Re a < 0."""
    return cmath.sqrt(np.pi / -a), -u**2 / (4.0 * a), -u * v / (2.0 * a), -v**2 / (4.0 * a)


def convolve(k: GaussianKernel, psi) -> ComplexGaussian:
    """Apply a kernel to a Gaussian state: psi'(Q) = int K(Q, q) psi(q) dq.

    Closed-form Gaussian integration; the result keeps complex center
    and width bookkeeping. ``psi`` may be a GaussianWavepacket or a
    ComplexGaussian. Raises NonConvergentError if the combined
    quadratic form in q is not negative definite in its real part
    (never the case for width > 0 and purely imaginary kernel
    exponents). The norm is preserved for unitary kernels.
    """
    if isinstance(psi, GaussianWavepacket):
        psi = psi.to_complex()
    a_q = k.coef_qq + psi.quad
    if not a_q.real < 0.0:
        raise NonConvergentError(
            f"combined quadratic form is not integrable: Re = {a_q.real!r}"
        )
    root, quad, lin, const = _integrate_out(a_q, k.coef_qQ, psi.lin)
    amp = k.prefactor * psi.amp * root * cmath.exp(const)
    return ComplexGaussian(quad=k.coef_QQ + quad, lin=lin, amp=amp)


def compose_kernels(k2: GaussianKernel, k1: GaussianKernel) -> GaussianKernel:
    """Closed-form Gaussian convolution int K2(Q, x) K1(x, q) dx.

    Matches the kernel of the composed symplectic matrix up to a
    constant unit-modulus phase (the caustic phase is not tracked).
    Raises FocalPointError when the composed map itself is focal.
    """
    a = k1.coef_QQ + k2.coef_qq
    # B of the composed map, whose kernel has coef_qQ = -c1 c2 / 2a = -i/B
    require_off_caustic(2j * a / (k1.coef_qQ * k2.coef_qQ))
    root, qq, qQ, QQ = _integrate_out(a, k1.coef_qQ, k2.coef_qQ)
    return GaussianKernel(k1.prefactor * k2.prefactor * root, qQ, k1.coef_qq + qq, k2.coef_QQ + QQ)


def named_generator(kind: str, m: float, omega: float, t: float) -> QuadraticGenerator:
    """Generators of the two reference systems.

    kind="free":     alpha = t/m, beta = gamma = 0 (omega ignored)
    kind="harmonic": alpha = t/m, beta = 0, gamma = m omega^2 t

    The omega -> 0 limit of "harmonic" is continuous and equals "free".
    """
    if not (math.isfinite(m) and m > 0.0):
        raise ValueError(f"mass must be positive and finite, got {m!r}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if kind == "free":
        return QuadraticGenerator(alpha=t / m, beta=0.0, gamma=0.0)
    if kind == "harmonic":
        if not (math.isfinite(omega) and omega >= 0.0):
            raise ValueError(f"omega must be non-negative, got {omega!r}")
        return QuadraticGenerator(alpha=t / m, beta=0.0, gamma=m * omega * omega * t)
    raise ValueError(f"unknown generator kind {kind!r} (expected 'free' or 'harmonic')")
