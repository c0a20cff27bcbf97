"""Acceptance suite: the binding numerical contracts, one line printed each.

Reference values on the comparison side are written out independently
(closed forms evaluated inline, brute-force matrices, finite
differences); run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion report.
"""

import cmath
import math

import numpy as np
import pytest

from quadprop.coherent_iwop import kernel_via_iwop
from quadprop.lie_core import QuadraticGenerator, normal_order
from quadprop.oracle import (
    Grid,
    fock_unitary_direct,
    fock_unitary_ordered,
    grid_evolve,
)
from quadprop.propagator import (
    GaussianWavepacket,
    compose_kernels,
    convolve,
    generating_function,
    kernel_from_abcd,
    kernel_from_sr,
    named_generator,
)
from quadprop.symplectic import (
    abcd_from_generator,
    abcd_from_sr,
    compose,
    matrix_exp_oracle,
    sr_from_abcd,
)
from quadprop.verify import near_degenerate_generators, random_generators

QQ_GRID = [(q, Q) for q in np.linspace(-2.0, 2.0, 5) for Q in np.linspace(-2.0, 2.0, 5)]


def _report(number: int, description: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} "
          f"(residual {residual:.3e}, tolerance {tolerance:.0e})")
    assert residual <= tolerance


@pytest.fixture(scope="module")
def bulk_generators():
    rng = np.random.default_rng(0)
    return random_generators(rng, 10_000) + near_degenerate_generators(rng, 300)


def test_criterion_01_harmonic_oscillator_reproduction():
    m_phys = omega = 1.0
    worst = 0.0
    for t in (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2):
        kernel = kernel_from_abcd(
            abcd_from_generator(named_generator("harmonic", m_phys, omega, t))
        )
        pref = cmath.sqrt(m_phys * omega / (2j * np.pi * math.sin(omega * t)))
        for q, Q in QQ_GRID:
            ref = pref * cmath.exp(
                1j * (-(m_phys * omega / math.sin(omega * t)) * q * Q
                      + (m_phys * omega / (2.0 * math.tan(omega * t))) * (q * q + Q * Q))
            )
            worst = max(worst, abs(kernel.evaluate(q, Q) - ref))
    _report(1, "harmonic-oscillator closed form", worst, 1e-10)


def test_criterion_02_free_particle_reproduction():
    m_phys = 1.0
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        kernel = kernel_from_abcd(
            abcd_from_generator(named_generator("free", m_phys, 0.0, t))
        )
        pref = cmath.sqrt(m_phys / (2j * np.pi * t))
        for q, Q in QQ_GRID:
            ref = pref * cmath.exp(
                1j * (-(m_phys / t) * q * Q + (m_phys / (2.0 * t)) * (q * q + Q * Q))
            )
            worst = max(worst, abs(kernel.evaluate(q, Q) - ref))
    _report(2, "free-particle closed form", worst, 1e-10)

    k_free = kernel_from_abcd(abcd_from_generator(named_generator("free", 1.0, 0.0, 1.0)))
    k_soft = kernel_from_abcd(
        abcd_from_generator(named_generator("harmonic", 1.0, 1e-6, 1.0))
    )
    worst = max(abs(k_soft.evaluate(q, Q) - k_free.evaluate(q, Q)) for q, Q in QQ_GRID)
    _report(2, "zero-frequency continuity", worst, 1e-5)


def test_criterion_03_unitarity_identity(bulk_generators):
    worst = max(abs(normal_order(g).unitarity_residual()) for g in bulk_generators)
    discs = [g.beta**2 - g.alpha * g.gamma for g in bulk_generators]
    assert any(d > 0 for d in discs) and any(d < 0 for d in discs)
    assert any(abs(d) < 1e-6 for d in discs)
    _report(3, "|s|^2 - |r|^2 = 1 over 10^4 generators", worst, 1e-10)


def test_criterion_04_symplectic_identity(bulk_generators):
    worst_det = 0.0
    worst_oracle = 0.0
    for g in bulk_generators:
        m = abcd_from_generator(g)
        worst_det = max(worst_det, abs(m.det() - 1.0))
        o = matrix_exp_oracle(g)
        worst_oracle = max(worst_oracle, abs(m.a - o.a), abs(m.b - o.b),
                           abs(m.c - o.c), abs(m.d - o.d))
    _report(4, "AD - BC = 1 over the same sample", worst_det, 1e-10)
    _report(4, "flow matrix vs matrix-exponential oracle", worst_oracle, 1e-10)


def test_criterion_05_dictionary_consistency(bulk_generators):
    worst = 0.0
    for g in bulk_generators:
        m = abcd_from_generator(g)
        md = abcd_from_sr(normal_order(g))
        worst = max(worst, abs(m.a - md.a), abs(m.b - md.b),
                    abs(m.c - md.c), abs(m.d - md.d))
    _report(5, "factor dictionary matches generator route", worst, 1e-10)

    rng = np.random.default_rng(1)
    worst = 0.0
    for g in random_generators(rng, 2000):
        f = normal_order(g)
        back = sr_from_abcd(abcd_from_sr(f))
        worst = max(worst, abs(back.s - f.s), abs(back.r - f.r))
    _report(5, "dictionary round trip", worst, 1e-12)


def test_criterion_06_dual_route_kernel_equality():
    rng = np.random.default_rng(2)
    worst = 0.0
    count = 0
    while count < 100:
        g = random_generators(rng, 1, scale=2.0)[0]
        m = abcd_from_generator(g)
        if abs(m.b) <= 1e-2:
            continue
        q, Q = rng.uniform(-3.0, 3.0, size=2)
        via_coherent = kernel_via_iwop(g, q, Q)
        via_factors = kernel_from_sr(normal_order(g)).evaluate(q, Q)
        via_matrix = kernel_from_abcd(m).evaluate(q, Q)
        worst = max(worst, abs(via_coherent - via_factors),
                    abs(via_factors - via_matrix))
        count += 1
    _report(6, "coherent route = factor route = matrix route", worst, 1e-10)


def test_criterion_07_normal_ordering_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for g in random_generators(rng, 20, scale=0.5):
        direct = fock_unitary_direct(g, dim=60)
        ordered = fock_unitary_ordered(g, dim=60)
        worst = max(worst, float(np.abs(direct[:9, :9] - ordered[:9, :9]).max()))
    _report(7, "truncated-Fock direct vs ordered product", worst, 1e-6)


def test_criterion_08_classical_correspondence():
    rng = np.random.default_rng(4)
    h = 1e-6
    worst_fd = 0.0
    worst_abcd = 0.0
    count = 0
    while count < 200:
        g = random_generators(rng, 1, scale=2.0)[0]
        m = abcd_from_generator(g)
        if abs(m.b) <= 1e-2:
            continue
        w = generating_function(m)
        q, Q = rng.uniform(-2.0, 2.0, size=2)
        # momenta implied by the linear map itself
        p_ref = (Q - m.a * q) / m.b
        P_ref = m.c * q + m.d * p_ref
        p_fd = (w.evaluate(q + h, Q) - w.evaluate(q - h, Q)) / (2.0 * h)
        P_fd = -(w.evaluate(q, Q + h) - w.evaluate(q, Q - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(p_fd - p_ref), abs(P_fd - P_ref))
        back = w.to_abcd()
        worst_abcd = max(worst_abcd, abs(back.a - m.a), abs(back.b - m.b),
                         abs(back.c - m.c), abs(back.d - m.d))
        count += 1
    _report(8, "finite-difference gradients of W", worst_fd, 1e-6)
    _report(8, "matrix reconstruction from W", worst_abcd, 1e-10)


def test_criterion_09_composition_group_property():
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 100:
        g1, g2 = random_generators(rng, 2, scale=1.5)
        m1 = abcd_from_generator(g1)
        m2 = abcd_from_generator(g2)
        m12 = compose(m2, m1)
        if min(abs(m1.b), abs(m2.b), abs(m12.b)) < 5e-2:
            continue
        k12 = compose_kernels(kernel_from_abcd(m2), kernel_from_abcd(m1))
        ref = kernel_from_abcd(m12)
        worst = max(worst,
                    abs(k12.coef_qQ - ref.coef_qQ),
                    abs(k12.coef_qq - ref.coef_qq),
                    abs(k12.coef_QQ - ref.coef_QQ),
                    abs(abs(k12.prefactor) - abs(ref.prefactor)),
                    abs(abs(k12.prefactor / ref.prefactor) - 1.0))
        count += 1
    _report(9, "kernel composition up to constant phase", worst, 1e-8)


def test_criterion_10_end_to_end_physics():
    worst_l2 = 0.0
    worst_norm = 0.0
    for kind, packet in [
        ("free", GaussianWavepacket(0.0, 1.0, 1.0)),
        ("harmonic", GaussianWavepacket(1.0, 0.0, 1.0)),
    ]:
        for t in (0.5, 1.0):
            g = named_generator(kind, 1.0, 1.0, t)
            grid = Grid.from_wavepacket(packet)
            evolved = grid_evolve([g], grid, steps=max(1, round(t / 5e-3)))
            worst_norm = max(worst_norm, abs(evolved.norm() - grid.norm()))
            state = convolve(kernel_from_abcd(abcd_from_generator(g)), packet)
            diff = evolved.amplitudes - state.evaluate(evolved.x)
            l2 = float(np.sqrt(np.sum(np.abs(diff) ** 2) * evolved.spacing))
            worst_l2 = max(worst_l2, l2)
    _report(10, "grid oracle vs kernel convolution", worst_l2, 5e-7)
    _report(10, "grid norm conservation", worst_norm, 1e-10)
