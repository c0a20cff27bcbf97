"""Classical side of the evolution: 2x2 symplectic ABCD matrices.

The Heisenberg-picture map of a quadratic generator is linear,
(Q, P) = (Aq + Bp, Cq + Dp) with AD - BC = 1. This module builds the
matrix from a generator (through the same gc/gs functions as the
normal ordering), converts to and from the (s, r) factors, composes
maps, and provides an independent matrix-exponential oracle for
cross-checking. It also parses the step-schedule file format used by
the CLI for piecewise-constant time dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import _ONE, INVARIANT_TOL, NormalOrderFactors, QuadraticGenerator, _gc_gs

__all__ = [
    "AbcdMatrix",
    "ScheduleError",
    "abcd_from_generator",
    "matrix_exp_oracle",
    "abcd_from_sr",
    "sr_from_abcd",
    "compose",
    "compose_schedule",
    "load_schedule",
]

# Taylor terms of the scaled exponential in ``matrix_exp_oracle``.
_EXP_TERMS = 24


@dataclass(frozen=True)
class AbcdMatrix:
    """Real 2x2 symplectic matrix [[a, b], [c, d]] with a*d - b*c = 1."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def require_symplectic(self) -> None:
        """Raise ValueError unless |AD - BC - 1| <= INVARIANT_TOL (NaN fails)."""
        res = self.det() - 1.0
        if not abs(res) <= INVARIANT_TOL:
            raise ValueError(f"matrix is not symplectic: det-1 = {res:.3e}")

    def apply(self, q: float, p: float) -> tuple[float, float]:
        """Map a phase-space point: (Q, P) = (aq + bp, cq + dp)."""
        return self.a * q + self.b * p, self.c * q + self.d * p

    @staticmethod
    def identity() -> "AbcdMatrix":
        return AbcdMatrix(1.0, 0.0, 0.0, 1.0)


def abcd_from_generator(g: QuadraticGenerator) -> AbcdMatrix:
    """ABCD matrix of the generator's phase-space flow.

    A = gc + beta*gs, B = alpha*gs, C = -gamma*gs, D = gc - beta*gs,
    with gc, gs evaluated at delta_sq = beta^2 - alpha*gamma. The
    determinant is gc^2 - delta_sq*gs^2 = 1 identically.
    """
    a, b, c = _ONE * g.alpha, _ONE * g.beta, _ONE * g.gamma
    gcv, gsv = _gc_gs(b * b - a * c)
    return AbcdMatrix(
        a=float(gcv + b * gsv),
        b=float(a * gsv),
        c=float(-c * gsv),
        d=float(gcv - b * gsv),
    )


def matrix_exp_oracle(g: QuadraticGenerator) -> AbcdMatrix:
    """Brute-force flow matrix: exp of [[beta, alpha], [-gamma, -beta]].

    Scaling-and-squaring with a truncated Taylor series (>= 20 terms);
    deliberately independent of gc/gs so it can certify
    ``abcd_from_generator`` to 1e-10 componentwise.
    """
    G = np.array([[g.beta, g.alpha], [-g.gamma, -g.beta]], dtype=float)
    norm = np.abs(G).sum(axis=1).max()
    nsquare = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    S = G / 2.0**nsquare
    E = np.eye(2)
    term = np.eye(2)
    for k in range(1, _EXP_TERMS + 1):
        term = term @ S / k
        E = E + term
    for _ in range(nsquare):
        E = E @ E
    return AbcdMatrix(a=E[0, 0], b=E[0, 1], c=E[1, 0], d=E[1, 1])


def abcd_from_sr(f: NormalOrderFactors) -> AbcdMatrix:
    """Dictionary from normal-ordered factors to the ABCD matrix.

    A = Re s - Re r, B = Im s - Im r, C = -(Im s + Im r), D = Re s + Re r.
    Rejects factors violating |s|^2 - |r|^2 = 1 beyond 1e-8.
    """
    f.require_unitary()
    return AbcdMatrix(
        a=f.s.real - f.r.real,
        b=f.s.imag - f.r.imag,
        c=-(f.s.imag + f.r.imag),
        d=f.s.real + f.r.real,
    )


def sr_from_abcd(m: AbcdMatrix) -> NormalOrderFactors:
    """Inverse dictionary: s = (d+a)/2 + i(b-c)/2, r = (d-a)/2 - i(b+c)/2.

    Exact inverse of ``abcd_from_sr`` (round-trips to 1e-12); rejects
    matrices with determinant off 1 by more than 1e-8.
    """
    m.require_symplectic()
    return NormalOrderFactors(
        s=complex(0.5 * (m.d + m.a), 0.5 * (m.b - m.c)),
        r=complex(0.5 * (m.d - m.a), -0.5 * (m.b + m.c)),
    )


def compose(m2: AbcdMatrix, m1: AbcdMatrix) -> AbcdMatrix:
    """Matrix product m2 . m1 (the later step goes on the left).

    The plain floating-point product. Rounding drift off det = 1 is
    returned as it is, never rescaled; callers check it with
    ``require_symplectic``.
    """
    return AbcdMatrix(
        a=m2.a * m1.a + m2.b * m1.c,
        b=m2.a * m1.b + m2.b * m1.d,
        c=m2.c * m1.a + m2.d * m1.c,
        d=m2.c * m1.b + m2.d * m1.d,
    )


def compose_schedule(schedule) -> AbcdMatrix:
    """ABCD matrix of a whole schedule, steps applied in list order.

    Each step's matrix, and the running product after it is multiplied
    in, must pass ``require_symplectic``; the error names the first step
    (1-based) at which either failed.
    """
    total = AbcdMatrix.identity()
    for number, g in enumerate(schedule, start=1):
        step = abcd_from_generator(g)
        try:
            step.require_symplectic()
            total = compose(step, total)
            total.require_symplectic()
        except ValueError as exc:
            raise ValueError(f"{exc} (schedule step {number})") from exc
    return total


class ScheduleError(ValueError):
    """A step-schedule file failed to parse."""


def load_schedule(path) -> list[QuadraticGenerator]:
    """Parse a step-schedule file into an ordered list of generators.

    One step per line as three whitespace-separated decimal literals
    ``alpha beta gamma``; ``#`` starts a comment; blank lines are
    skipped. Steps are listed in the order they are applied.
    """
    steps = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ScheduleError(
                        f"{path}:{lineno}: expected 'alpha beta gamma', got {raw.strip()!r}"
                    )
                try:
                    alpha, beta, gamma = (float(p) for p in parts)
                except ValueError as exc:
                    raise ScheduleError(f"{path}:{lineno}: {exc}") from exc
                try:
                    steps.append(QuadraticGenerator(alpha, beta, gamma))
                except ValueError as exc:
                    raise ScheduleError(f"{path}:{lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ScheduleError(f"{path}: not UTF-8 text: {exc}") from exc
    return steps
