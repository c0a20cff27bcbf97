"""Self-contained invariant suites for every module, used by the CLI.

Each suite re-derives its module's defining identities on fixed-seed
random samples and reports the worst residual per check. ``run_all``
aggregates them into a machine-readable summary; any residual above its
tolerance, or not finite, fails the run.
"""

from __future__ import annotations

import math

import numpy as np

from . import coherent_iwop, oracle, propagator, symplectic
from .lie_core import QuadraticGenerator, normal_order
from .propagator import GaussianWavepacket, named_generator
from .symplectic import abcd_from_generator, compose

__all__ = ["run_all", "random_generators", "near_degenerate_generators"]

DEFAULT_SEED = 20260801


def random_generators(rng, n: int, scale: float = 5.0) -> list[QuadraticGenerator]:
    """n generators with components uniform in [-scale, scale]."""
    vals = rng.uniform(-scale, scale, size=(n, 3))
    return [QuadraticGenerator(*row) for row in vals]


def near_degenerate_generators(rng, n: int) -> list[QuadraticGenerator]:
    """Generators sampled near beta^2 = alpha*gamma so |delta_sq| < 1e-6."""
    out = []
    for _ in range(n):
        alpha = rng.uniform(0.05, 5.0) * (1 if rng.random() < 0.5 else -1)
        gamma = rng.uniform(0.05, 5.0) * np.sign(alpha)
        beta = np.sqrt(alpha * gamma) * (1 if rng.random() < 0.5 else -1)
        beta += rng.uniform(-1.0, 1.0) * 1e-8
        out.append(QuadraticGenerator(alpha, beta, gamma))
    return out


def _filtered_generators(rng, n):
    """Random generators in [-2, 2] whose flow matrix has |B| above 1e-2.

    Closer to a caustic the (s, r) components cancel in B, and double
    rounding alone exceeds the 1e-10 tolerance of the kernel checks.
    """
    out = []
    while len(out) < n:
        g = random_generators(rng, 1, 2.0)[0]
        if abs(abcd_from_generator(g).b) > 1e-2:
            out.append(g)
    return out


def _check(residuals, tolerance: float) -> dict:
    """The worst of the residuals against the tolerance.

    np.max keeps a NaN, which the builtin max drops. A NaN or inf fails
    the check (both compare false) and is reported as None, JSON null.
    """
    worst = float(np.max(residuals, initial=0.0))
    return {
        "residual": worst if math.isfinite(worst) else None,
        "tolerance": tolerance,
        "pass": worst <= tolerance,
    }


def lie_core_suite(rng) -> dict:
    checks = {}

    gens = random_generators(rng, 10_000) + near_degenerate_generators(rng, 300)
    res = [abs(normal_order(g).unitarity_residual()) for g in gens]
    checks["unitarity"] = _check(res, 1e-10)

    # Continuity through the delta_sq = 0 seam of gc/gs: delta_sq = 0 generators
    # against (alpha, beta, gamma - eps/alpha), whose delta_sq is eps.
    res = []
    for alpha, beta, gamma in [(1.0, 1.0, 1.0), (2.0, -1.0, 0.5), (3.0, 0.0, 0.0),
                               (-0.5, 0.5, -0.5)]:
        base = normal_order(QuadraticGenerator(alpha, beta, gamma))
        for eps in (-1e-9, 1e-9):
            f = normal_order(QuadraticGenerator(alpha, beta, gamma - eps / alpha))
            res += (abs(f.s - base.s), abs(f.r - base.r))
    checks["seam_continuity"] = _check(res, 1e-7)

    # Truncated-Fock certification of the factorization: single exponential
    # vs three-factor product, compared on levels <= 8.
    res = []
    for g in random_generators(rng, 20, scale=0.5):
        direct = oracle.fock_unitary_direct(g)
        ordered = oracle.fock_unitary_ordered(g)
        res.append(np.abs(direct[:9, :9] - ordered[:9, :9]).max())
    checks["fock_equivalence"] = _check(res, 1e-6)

    return _suite(checks)


def symplectic_suite(rng) -> dict:
    checks = {}
    gens = random_generators(rng, 10_000) + near_degenerate_generators(rng, 300)

    flows = symplectic._expm(np.array([[[g.beta, g.alpha], [-g.gamma, -g.beta]] for g in gens]))
    res_det, res_oracle, res_dict = [], [], []
    for g, o in zip(gens, flows):
        m = abcd_from_generator(g)
        res_det.append(abs(m.det() - 1.0))
        res_oracle += (
            abs(m.a - o[0, 0]), abs(m.b - o[0, 1]), abs(m.c - o[1, 0]), abs(m.d - o[1, 1]),
        )
        md = symplectic.abcd_from_sr(normal_order(g))
        res_dict += (abs(m.a - md.a), abs(m.b - md.b), abs(m.c - md.c), abs(m.d - md.d))
    checks["determinant"] = _check(res_det, 1e-10)
    checks["matrix_exp_oracle"] = _check(res_oracle, 1e-10)
    checks["sr_dictionary"] = _check(res_dict, 1e-10)

    res = []
    for g in random_generators(rng, 2000):
        f = normal_order(g)
        back = symplectic.sr_from_abcd(symplectic.abcd_from_sr(f))
        res += (abs(back.s - f.s), abs(back.r - f.r))
    checks["dictionary_roundtrip"] = _check(res, 1e-12)

    # Long composition chain of rotation-dominated steps (bounded entries);
    # the determinant must stay pinned to 1.
    total = symplectic.AbcdMatrix.identity()
    res = []
    for _ in range(1000):
        theta = rng.uniform(-np.pi, np.pi)
        eps = rng.uniform(-0.01, 0.01, size=3)
        step = abcd_from_generator(
            QuadraticGenerator(theta + eps[0], eps[1], theta + eps[2])
        )
        total = compose(step, total)
        res.append(abs(total.det() - 1.0))
    checks["composition_chain"] = _check(res, 1e-9)

    return _suite(checks)


def propagator_suite(rng) -> dict:
    checks = {}

    # Kernel from (s, r) and kernel from ABCD agree pointwise.
    res = []
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    for g in _filtered_generators(rng, 1000):
        k1 = propagator.kernel_from_sr(normal_order(g))
        k2 = propagator.kernel_from_abcd(abcd_from_generator(g))
        v1 = k1.evaluate(pts[:, 0], pts[:, 1])
        v2 = k2.evaluate(pts[:, 0], pts[:, 1])
        res.append(np.abs(v1 - v2).max())
    checks["dual_form"] = _check(res, 1e-10)

    # The generating function reconstructs its source matrix, and its
    # gradient map reproduces the linear map exactly.
    res = []
    for g in _filtered_generators(rng, 1000):
        m = abcd_from_generator(g)
        w = propagator.generating_function(m)
        back = w.to_abcd()
        res += (abs(back.a - m.a), abs(back.b - m.b), abs(back.c - m.c), abs(back.d - m.d))
        q, qq = rng.uniform(-2.0, 2.0, size=2)
        p, pp = propagator.classical_map_from_w(w, q, qq)
        q_img, p_img = m.apply(q, p)
        res += (abs(q_img - qq), abs(p_img - pp))
    checks["generating_roundtrip"] = _check(res, 1e-10)

    # Group property at the kernel level, modulo a constant phase.
    res = []
    count = 0
    while count < 100:
        g1, g2 = random_generators(rng, 2, scale=1.5)
        m1 = abcd_from_generator(g1)
        m2 = abcd_from_generator(g2)
        m12 = compose(m2, m1)
        if min(abs(m1.b), abs(m2.b), abs(m12.b)) < 5e-2:
            continue
        k12 = propagator.compose_kernels(
            propagator.kernel_from_abcd(m2), propagator.kernel_from_abcd(m1)
        )
        k_ref = propagator.kernel_from_abcd(m12)
        res += (
            abs(k12.coef_qQ - k_ref.coef_qQ),
            abs(k12.coef_qq - k_ref.coef_qq),
            abs(k12.coef_QQ - k_ref.coef_QQ),
            abs(abs(k12.prefactor) - abs(k_ref.prefactor)),
            abs(abs(k12.prefactor / k_ref.prefactor) - 1.0),
        )
        count += 1
    checks["kernel_group"] = _check(res, 1e-8)

    # Unitary kernels preserve the norm of every packet they act on.
    res = []
    for g in _filtered_generators(rng, 100):
        k = propagator.kernel_from_abcd(abcd_from_generator(g))
        psi = GaussianWavepacket(
            center_q=rng.uniform(-2, 2),
            center_p=rng.uniform(-2, 2),
            width=rng.uniform(0.5, 2.0),
            phase=rng.uniform(-np.pi, np.pi),
        )
        res.append(abs(propagator.convolve(k, psi).norm() - 1.0))
    checks["convolve_unitarity"] = _check(res, 1e-10)

    return _suite(checks)


def iwop_suite(rng) -> dict:
    checks = {}

    # Coherent-state completeness with the d^2z/pi measure: the smeared
    # delta normalization int g(x) K(x,y) g(y) dx dy over a |z| <= 8 disk
    # equals 1 for a unit Gaussian g.
    checks["completeness"] = _check([abs(_completeness_quadrature() - 1.0)], 1e-4)

    res = []
    for g in _filtered_generators(rng, 100):
        q, qq = rng.uniform(-3.0, 3.0, size=2)
        via = coherent_iwop.kernel_via_iwop(g, q, qq)
        direct = propagator.kernel_from_sr(normal_order(g)).evaluate(q, qq)
        res.append(abs(via - direct))
    checks["dual_route"] = _check(res, 1e-10)

    # <z1|U|z2> against the truncated-Fock unitary between coherent vectors
    # c_n(z) = e^{-|z|^2/2} z^n / sqrt(n!), the identity among the generators.
    # Their coefficients in [-0.5, 0.5] keep arg s far from pi, so the
    # principal sqrt(s) is right here: this check does not witness the phase.
    roots = np.sqrt(np.arange(1.0, oracle.FOCK_DIM))
    res = []
    for g in random_generators(rng, 20, scale=0.5) + [QuadraticGenerator(0.0, 0.0, 0.0)]:
        u, f = oracle.fock_unitary_direct(g), normal_order(g)
        for z1, z2 in rng.uniform(-2.0, 2.0, size=(10, 2, 2)) @ [1.0, 1.0j]:
            c1, c2 = (np.exp(-0.5 * abs(z) ** 2) * np.cumprod(np.r_[1.0, z / roots])
                      for z in (z1, z2))
            got = coherent_iwop.sandwich(coherent_iwop.CoherentLabel(complex(z1)),
                                         coherent_iwop.CoherentLabel(complex(z2)), f)
            res.append(abs(got - c1.conj() @ u @ c2))
    checks["sandwich_fock"] = _check(res, 1e-12)

    return _suite(checks)


def _completeness_quadrature() -> float:
    """int (d^2 z / pi) |<z|g>|^2 over |z| <= 8 for the unit-width Gaussian g,
    with <z|g> evaluated by position-space quadrature of the coherent
    overlap. For z = a + ib the overlap factors into a part in (a, x), a
    part in (b, x) and a constant in z, so every label's quadrature is one
    entry of a single matrix product, masked to the disc. The factors are
    pinned against overlap_position on a spot sample."""
    hx = 0.05
    x = np.arange(-16.0, 16.0 + 0.5 * hx, hx)
    g = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    weights = g * hx

    hz = 0.02
    axis = np.arange(-8.0 + 0.5 * hz, 8.0, hz)
    a, b = axis[:, None], axis[None, :]
    # <z|x> = left[a, x] * right[x, b] * const[a, b]
    left = np.pi ** (-0.25) * np.exp(-0.5 * x * x + np.sqrt(2.0) * a * x)
    right = np.exp(-1j * np.sqrt(2.0) * x[:, None] * b)
    zc = a - 1j * b  # conjugated labels
    const = np.exp(-0.5 * zc * zc - 0.5 * (a * a + b * b))

    # the factored overlap must reproduce the public one exactly
    i = int(np.argmin(np.abs(axis - 0.01)))
    ref = coherent_iwop.overlap_position(
        coherent_iwop.CoherentLabel(complex(axis[i], axis[3])), x
    )
    if np.abs(left[i] * right[:, 3] * const[i, 3] - ref).max() > 1e-14:
        raise AssertionError("completeness integrand drifted from overlap_position")

    inner = ((left * weights) @ right) * const
    disc = np.hypot(a, b) <= 8.0
    return float(np.sum(np.abs(inner[disc]) ** 2)) * hz * hz / np.pi


def oracle_suite(rng) -> dict:
    checks = {}

    # [a, a^dag] - 1 on the first FOCK_DIM - 1 levels; the last is a truncation artifact
    a = oracle._ladder()[0]
    n = oracle.FOCK_DIM - 1
    comm = (a @ a.conj().T - a.conj().T @ a)[:n, :n]
    checks["fock_commutator"] = _check([float(np.abs(comm - np.eye(n)).max())], 1e-12)

    # Norm conservation over 200 fourth-order Pade steps (400 shifted Cayley
    # solves; only each step's pair is unitary) with the cross term, and over
    # the end-to-end runs below, whose free t = 1 run is the same without it.
    grid = oracle.Grid.from_wavepacket(GaussianWavepacket(0.0, 1.0, 1.0))
    out = oracle.grid_evolve([QuadraticGenerator(0.8, 0.3, 1.2)], grid, steps=200)
    res_norm = [abs(out.norm() - grid.norm())]

    # End to end: Schrodinger grid vs closed-form kernel convolution.
    res = []
    for kind, packet in [
        ("free", GaussianWavepacket(0.0, 1.0, 1.0)),
        ("harmonic", GaussianWavepacket(1.0, 0.0, 1.0)),
    ]:
        for t in (0.5, 1.0):
            g = named_generator(kind, 1.0, 1.0, t)
            grid = oracle.Grid.from_wavepacket(packet)
            evolved = oracle.grid_evolve([g], grid, steps=max(1, round(t / 5e-3)))
            res_norm.append(abs(evolved.norm() - grid.norm()))
            kernel = propagator.kernel_from_abcd(abcd_from_generator(g))
            state = propagator.convolve(kernel, packet)
            diff = evolved.amplitudes - state.evaluate(evolved.x)
            res.append(np.sqrt(np.sum(np.abs(diff) ** 2) * evolved.spacing))
    checks["norm_conservation"] = _check(res_norm, 1e-10)
    checks["end_to_end"] = _check(res, 5e-7)

    return _suite(checks)


def _suite(checks: dict) -> dict:
    residuals = [c["residual"] for c in checks.values()]
    return {
        "pass": all(c["pass"] for c in checks.values()),
        # a non-finite residual (None) is the worst one
        "max_residual": None if None in residuals else max(residuals),
        "checks": checks,
    }


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every suite and aggregate into a JSON-ready summary."""
    suites = {
        "lie_core": lie_core_suite(np.random.default_rng(seed)),
        "symplectic": symplectic_suite(np.random.default_rng(seed + 1)),
        "propagator": propagator_suite(np.random.default_rng(seed + 2)),
        "iwop": iwop_suite(np.random.default_rng(seed + 3)),
        "oracle": oracle_suite(np.random.default_rng(seed + 4)),
    }
    return {"pass": all(s["pass"] for s in suites.values()), "suites": suites}
