"""Normal-ordered factorization of quadratic-Hamiltonian evolution operators.

A quadratic generator (alpha, beta, gamma) defines the unitary

    U = exp[-(i/2) * (alpha p^2 + beta (qp + pq) + gamma q^2)]

in natural units (hbar = 1, dimensionless q and p). Rewritten on the
su(1,1) basis built from a = (q + ip)/sqrt(2), the same operator is a
single exponential with parameters (tau, sigma), and it factorizes into
a normal-ordered product governed by a complex pair (s, r) obeying
|s|^2 - |r|^2 = 1. This module computes (tau, sigma), the discriminant
delta_sq = |tau|^2 - sigma^2/4 = beta^2 - alpha*gamma, and (s, r),
handling both signs of delta_sq through the entire functions gc and gs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_invariant

__all__ = [
    "QuadraticGenerator",
    "SU11Params",
    "NormalOrderFactors",
    "to_su11",
    "normal_order",
]

# Multiplying by this lifts a float to longdouble exactly, about ten times
# faster than calling the np.longdouble constructor.
_ONE = np.longdouble(1)

# (generator, flow) of the last ``_flow`` call; see its docstring.
_last_flow = (None, None)


@dataclass(frozen=True)
class QuadraticGenerator:
    """Coefficient triple of the quadratic exponent.

    Parameters
    ----------
    alpha : float
        Coefficient of p^2.
    beta : float
        Coefficient of the symmetrized cross term qp + pq.
    gamma : float
        Coefficient of q^2.

    All three must be finite; physical mass/frequency/time enter only
    through these dimensionless combinations (e.g. the harmonic
    oscillator uses alpha = t/m, beta = 0, gamma = m w^2 t).
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"generator coefficient {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class SU11Params:
    """su(1,1) form of a quadratic generator.

    tau is the complex raising/lowering coefficient, sigma the real
    coefficient along the compact direction, and delta_sq the invariant
    |tau|^2 - sigma^2/4 (= beta^2 - alpha*gamma) whose sign selects the
    hyperbolic / trigonometric character of the flow.
    """

    tau: complex
    sigma: float
    delta_sq: float


@dataclass(frozen=True)
class NormalOrderFactors:
    """Complex pair (s, r) of the normal-ordered factorization.

    Satisfies |s|^2 - |r|^2 = 1, hence |s| >= 1; s plays the role of a
    generalized cosh of the flow, r the generalized sinh along tau.
    """

    s: complex
    r: complex

    def unitarity_residual(self) -> float:
        """|s|^2 - |r|^2 - 1, zero for factors of a unitary; NaN where a square overflows."""
        try:
            return abs(self.s) ** 2 - abs(self.r) ** 2 - 1.0
        except OverflowError:
            return math.nan

    def require_unitary(self) -> None:
        """Raise ValueError unless ||s|^2 - |r|^2 - 1| <= INVARIANT_TOL (NaN fails)."""
        require_invariant(self.unitarity_residual(), "factors are not unitary: |s|^2-|r|^2-1")


def to_su11(g: QuadraticGenerator) -> SU11Params:
    """Map a generator to its su(1,1) parameters.

    tau = beta + i(alpha - gamma)/2, sigma = -(alpha + gamma), and
    delta_sq = beta^2 - alpha*gamma, with sigma and delta_sq read from
    ``_flow``'s long-double lift. Total on finite inputs. ``_flow`` also
    evaluates cosh/sinh, so outside an ``np.errstate`` that ignores
    overflow this warns where they overflow, as ``normal_order`` does.
    """
    a, _, c, x, _, _ = _flow(g)
    return SU11Params(
        tau=complex(g.beta, 0.5 * (g.alpha - g.gamma)),
        sigma=float(-(a + c)),
        delta_sq=float(x),
    )


def _flow(g: QuadraticGenerator):
    """Long-double (alpha, beta, gamma, delta_sq, gc, gs) of a generator, for both closed forms.

    gc = cosh(sqrt(x)) and gs = sinh(sqrt(x))/sqrt(x) at x = delta_sq > 0,
    exactly 1 at x == 0 (where gs is 0/0), and cos(sqrt(-x)) and
    sin(sqrt(-x))/sqrt(-x) at any other x, a NaN included. With an 80-bit
    long double they measured within 0.5004 ulp of 50-digit mpmath at |x| <= 1.

    The last result is kept with its generator in one (g, flow) tuple, so
    that ``to_su11``, ``normal_order``, ``abcd_from_generator`` and
    ``kernel_via_iwop`` on the same generator object lift it and call
    cosh/sinh once, and a thread never pairs one generator with another's
    flow. The memo is keyed by identity (``g is last``): an equal but
    distinct generator is lifted again, to the same bits. A repeated call
    on the same object returns the stored flow, so it emits no second numpy
    overflow warning.
    """
    global _last_flow
    last, flow = _last_flow
    if last is g:
        return flow
    a, b, c = _ONE * g.alpha, _ONE * g.beta, _ONE * g.gamma
    x = b * b - a * c
    if x > 0:
        rt = np.sqrt(x)
        flow = a, b, c, x, np.cosh(rt), np.sinh(rt) / rt
    elif x == 0:
        flow = a, b, c, x, _ONE, _ONE
    else:
        rt = np.sqrt(-x)
        flow = a, b, c, x, np.cos(rt), np.sin(rt) / rt
    _last_flow = (g, flow)
    return flow


def normal_order(g: QuadraticGenerator) -> NormalOrderFactors:
    """Normal-ordered factors (s, r) of the evolution operator.

    With (tau, sigma, delta_sq) from ``to_su11`` and gc, gs from ``_flow``:

        s = gc(delta_sq) - i (sigma/2) gs(delta_sq)
        r = -tau * gs(delta_sq)

    The pair satisfies |s|^2 - |r|^2 = 1 for every finite generator.
    Intermediates are carried in extended precision, but s and r are
    rounded to doubles, so the absolute residual grows with |s|^2. For
    the generator (0, sqrt(delta_sq), 0) it is 5.8e-11 at delta_sq = 50,
    -1.5e-8 at 100 (past INVARIANT_TOL, so the unitarity guard rejects
    the pair) and -6e-5 at 200; relative to |s|^2 it stays near 1e-16.
    """
    a, b, c, _, gcv, gsv = _flow(g)
    # -(sigma/2) gs = (a + c) h and -((a - c)/2) gs = (a - c) (-h) with
    # h = gs/2, to the bit: halving is exact and the signs, of zeros too,
    # follow. (c - a) h would turn the -0.0 of Im r at alpha = gamma into +0.0.
    h = gsv * 0.5
    s = complex(float(gcv), float((a + c) * h))
    r = complex(float(-b * gsv), float((a - c) * -h))
    return NormalOrderFactors(s=s, r=r)
