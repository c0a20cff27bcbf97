"""Gaussian propagator kernels and their classical generating function.

The transition amplitude of a quadratic-Hamiltonian unitary between
position eigenstates is the Gaussian

    K(Q, q) = prefactor * exp(coef_qQ*q*Q + coef_qq*q^2 + coef_QQ*Q^2),

built here both from the normal-ordered factors (s, r) and from the
symplectic ABCD matrix, where it takes the form

    K(Q, q) = sqrt(1/(2 pi i B)) * exp(-i W(q, Q)),
    W(q, Q) = qQ/B - (A/2B) q^2 - (D/2B) Q^2.

W is a classical type-1 generating function: p = dW/dq, P = -dW/dQ
reproduce exactly the linear map (Q, P) = (Aq + Bp, Cq + Dp). Kernels
degenerate to delta functions at focal points (B = 0), which raise
FocalPointError rather than returning a meaningless Gaussian. Closed
form Gaussian integration applies kernels to wavepackets and composes
two kernels into one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FOCAL_TOL, FocalPointError, NonConvergentError
from .lie_core import NormalOrderFactors, QuadraticGenerator
from .symplectic import AbcdMatrix, abcd_from_sr

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


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian position-space kernel K(Q, q).

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

    def evaluate(self, q, Q):
        """Evaluate K(Q, q); q and Q may be scalars or broadcastable arrays.

        Two paths run the same IEEE operations in the same order, so any
        partitioning of a point batch gives bitwise-identical values:

        * two Python ``float``/``int`` scalars are evaluated in Python
          ``complex`` with ``cmath.exp``, without numpy's per-call cost;
        * anything else goes through numpy arrays, a 0-d input returning
          a ``complex``.

        The exponent multiplies complex coefficients by real points, where
        every rounding is a single product. The final prefactor * exp(...)
        is written as real products, (pr er - pi ei) + i (pr ei + pi er),
        because numpy's SIMD complex multiply may fuse them (an FMA rounds
        once where Python rounds twice) and would then differ from Python
        in the last bit. A scalar exponent that is not finite, or whose
        real part is 708 or more (where ``cmath.exp`` raises, or scales
        differently from the C library's complex exp), falls back to the
        array path, where overflow gives inf/NaN without a RuntimeWarning.
        """
        if isinstance(q, (float, int)) and isinstance(Q, (float, int)):
            q, Q = float(q), float(Q)
            expo = self.coef_qQ * q * Q + self.coef_qq * q * q + self.coef_QQ * Q * Q
            if expo.real < 708.0 and cmath.isfinite(expo):
                e = cmath.exp(expo)
                pr, pi = self.prefactor.real, self.prefactor.imag
                return complex(pr * e.real - pi * e.imag, pr * e.imag + pi * e.real)
        scalar = np.ndim(q) == 0 and np.ndim(Q) == 0
        q = np.atleast_1d(np.asarray(q, dtype=float))
        Q = np.atleast_1d(np.asarray(Q, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(self.coef_qQ * q * Q + self.coef_qq * q * q + self.coef_QQ * Q * Q)
            pr, pi = self.prefactor.real, self.prefactor.imag
            out = np.empty(e.shape, dtype=complex)
            out.real = pr * e.real - pi * e.imag
            out.imag = pr * e.imag + pi * e.real
        return complex(out[0]) if scalar else out


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
        return ComplexGaussian.from_wavepacket(self)

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

    @classmethod
    def from_wavepacket(cls, psi: GaussianWavepacket) -> "ComplexGaussian":
        """Raises ValueError if width^2 underflows, or center_q^2 or center_q/width^2 overflows."""
        w2 = psi.width * psi.width
        try:
            quad = complex(-0.5 / w2, 0.0)
            lin = complex(psi.center_q / w2, psi.center_p)
            amp = (np.pi * w2) ** (-0.25) * cmath.exp(
                complex(-0.5 * psi.center_q**2 / w2, psi.phase)
            )
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot sample {psi}: {exc}") from exc
        if not (cmath.isfinite(quad) and cmath.isfinite(lin)):
            raise ValueError(f"cannot sample {psi}: its exponent is not finite")
        return cls(quad=quad, lin=lin, amp=amp)

    def evaluate(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # far out x * x overflows and the exponential is exactly 0
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.amp * np.exp(self.quad * x * x + self.lin * x)
        return complex(out[0]) if scalar else out

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

    Raises FocalPointError when |E| < 1e-12 (B = 0 caustic).
    """
    f.require_unitary()
    e = f.s - f.s.conjugate() - f.r + f.r.conjugate()
    if abs(e) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, kernel degenerates to a delta function",
            matrix=abcd_from_sr(f),
        )
    plus = f.s + f.s.conjugate()
    rsum = f.r + f.r.conjugate()
    return GaussianKernel(
        prefactor=cmath.sqrt(1.0 / (np.pi * e)),
        coef_qQ=2.0 / e,
        coef_qq=-(plus - rsum) / (2.0 * e),
        coef_QQ=-(plus + rsum) / (2.0 * e),
    )


def kernel_from_abcd(m: AbcdMatrix) -> GaussianKernel:
    """Kernel sqrt(1/(2 pi i B)) exp(-i W(q, Q)) from the symplectic matrix.

    The prefactor branch is pinned explicitly: e^{-i pi/4}/sqrt(2 pi B)
    for B > 0 and e^{+i pi/4}/sqrt(2 pi |B|) for B < 0. No phase
    tracking across caustics is attempted.
    """
    m.require_symplectic()
    if abs(m.b) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, kernel degenerates to a delta function", matrix=m
        )
    mag = 1.0 / math.sqrt(2.0 * np.pi * abs(m.b))
    phase = -np.pi / 4.0 if m.b > 0 else np.pi / 4.0
    return GaussianKernel(
        prefactor=mag * cmath.exp(1j * phase),
        coef_qQ=-1j / m.b,
        coef_qq=0.5j * m.a / m.b,
        coef_QQ=0.5j * m.d / m.b,
    )


def generating_function(m: AbcdMatrix) -> GeneratingFunctionW:
    """Classical generating function of the map; raises at focal points."""
    if abs(m.b) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, generating function undefined", matrix=m
        )
    return GeneratingFunctionW(
        inv_b=1.0 / m.b,
        a_over_2b=0.5 * m.a / m.b,
        d_over_2b=0.5 * m.d / m.b,
    )


def classical_map_from_w(w: GeneratingFunctionW, q: float, Q: float) -> tuple[float, float]:
    """Momenta from the classical prescription p = dW/dq, P = -dW/dQ.

    Returns (p, P) such that (Q, P) is the image of (q, p) under the
    source linear map.
    """
    p = Q * w.inv_b - 2.0 * w.a_over_2b * q
    P = -q * w.inv_b + 2.0 * w.d_over_2b * Q
    return p, P


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
    quad = k.coef_QQ - k.coef_qQ**2 / (4.0 * a_q)
    lin = -k.coef_qQ * psi.lin / (2.0 * a_q)
    amp = (
        k.prefactor
        * psi.amp
        * cmath.sqrt(np.pi / -a_q)
        * cmath.exp(-psi.lin**2 / (4.0 * a_q))
    )
    return ComplexGaussian(quad=quad, lin=lin, amp=amp)


def compose_kernels(k2: GaussianKernel, k1: GaussianKernel) -> GaussianKernel:
    """Closed-form Gaussian convolution int K2(Q, x) K1(x, q) dx.

    Matches the kernel of the composed symplectic matrix up to a
    constant unit-modulus phase (the caustic phase is not tracked).
    Raises FocalPointError when the composed map itself is focal.
    """
    a = k1.coef_QQ + k2.coef_qq
    if abs(a) < FOCAL_TOL:
        raise FocalPointError("focal point: composed kernel degenerates", matrix=None)
    return GaussianKernel(
        prefactor=k1.prefactor * k2.prefactor * cmath.sqrt(np.pi / -a),
        coef_qQ=-k1.coef_qQ * k2.coef_qQ / (2.0 * a),
        coef_qq=k1.coef_qq - k1.coef_qQ**2 / (4.0 * a),
        coef_QQ=k2.coef_QQ - k2.coef_qQ**2 / (4.0 * a),
    )


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
