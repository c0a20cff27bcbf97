"""Unit tests for the coherent-state route: overlaps, matrix elements,
closed-form Gaussian integration, and the independent kernel assembly."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from quadprop.coherent_iwop import (
    CoherentLabel,
    gaussian_integral,
    kernel_via_iwop,
    overlap_position,
    sandwich,
)
from quadprop.errors import FocalPointError, NonConvergentError
from quadprop.lie_core import NormalOrderFactors, QuadraticGenerator, normal_order

TWO_PI_SQ = (2.0 * np.pi) ** 2


def _integral(m, j, constant=0.0):
    """``gaussian_integral`` of numpy inputs, converted to nested lists."""
    return gaussian_integral(m.tolist(), j.tolist(), constant)


def _embedded(m, j, constant=0.0):
    """``gaussian_integral`` of an n x n form as the leading block of a 4 x 4
    whose other block is the identity, with J padded by zeros, and
    (2 pi)^{(4 - n)/2}, the identity block's factor of that integral, by
    which an n-dimensional reference is multiplied."""
    n = len(j)
    m4 = np.eye(4, dtype=complex)
    m4[:n, :n] = m
    j4 = np.zeros(4, dtype=complex)
    j4[:n] = j
    return _integral(m4, j4, constant), (2.0 * np.pi) ** ((4 - n) / 2.0)


def _eigen_sqrt_det(m):
    """sqrt(det M) by the eigenvalue construction, the reference branch.

    sqrt(det M) = sqrt(det R) * prod sqrt(1 + i lam_k), where R = Re M and
    lam_k are the eigenvalues of R^{-1/2} Im(M) R^{-1/2}; each factor lies
    in the right half-plane, so the principal roots follow the analytic
    continuation from the real case.
    """
    w, v = np.linalg.eigh(m.real)
    assert w[0] > 0.0
    rinv_half = (v / np.sqrt(w)) @ v.T
    s = rinv_half @ m.imag @ rinv_half
    lam = np.linalg.eigvalsh(0.5 * (s + s.T))
    out = math.prod(np.sqrt(w).tolist())
    for l in lam:
        out *= cmath.sqrt(1.0 + 1j * l)
    return out


# Frozen references (independent 40-digit evaluation before the build).
FREE_KERNEL_0_TO_1 = 0.38280491754448324 - 0.11231802257721920j
OSC_KERNEL_1_TO_1 = -0.08495811577432465 - 0.38979104871196284j
IDENTITY_SANDWICH_1_2I = -0.03415941250531202 + 0.07463967802970080j


class TestOverlapPosition:
    def test_vacuum_at_origin(self):
        got = overlap_position(CoherentLabel(0j), 0.0)
        assert got == pytest.approx(0.7511255444649425, abs=1e-14)
        assert got == pytest.approx(np.pi ** (-0.25), abs=1e-15)

    def test_vacuum_is_ground_state_gaussian(self):
        x = np.linspace(-3, 3, 13)
        got = overlap_position(CoherentLabel(0j), x)
        ref = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_normalization_by_quadrature(self):
        z = CoherentLabel(0.3 + 0.4j)
        x = np.arange(-10.0, 10.0, 1e-3)
        total = np.sum(np.abs(overlap_position(z, x)) ** 2) * 1e-3
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_non_finite_label(self):
        with pytest.raises(ValueError):
            CoherentLabel(complex(math.nan, 0.0))

    def test_far_tail_is_zero_without_warnings(self):
        # the square overflows at x = 1e200: exactly 0, and no warning (filterwarnings = error)
        for z in (1 + 0j, 1e155 + 0j, 1e155j):
            assert overlap_position(CoherentLabel(z), 1e200) == 0j
            assert overlap_position(CoherentLabel(z), -1e200) == 0j
        # |z|^2 overflows for these labels, yet <z|x> peaks at pi^{-1/4}
        # where x = sqrt(2) Re z
        assert overlap_position(CoherentLabel(1e155 + 0j), 0.0) == 0j
        peak = np.pi ** (-0.25)
        assert overlap_position(CoherentLabel(1e155 + 0j), math.sqrt(2.0) * 1e155) == peak
        assert overlap_position(CoherentLabel(1e155j), 0.0) == peak


class TestSandwich:
    def test_identity_diagonal_element(self):
        ident = NormalOrderFactors(1.0 + 0j, 0j)
        for z in (0j, 1.0 + 0j, 0.5 - 1.5j):
            got = sandwich(CoherentLabel(z), CoherentLabel(z), ident)
            assert got == pytest.approx(1.0, abs=1e-14)

    def test_identity_off_diagonal_element(self):
        ident = NormalOrderFactors(1.0 + 0j, 0j)
        got = sandwich(CoherentLabel(1.0 + 0j), CoherentLabel(2.0j), ident)
        # exp(2i - 5/2), frozen
        assert got == pytest.approx(IDENTITY_SANDWICH_1_2I, abs=1e-14)
        assert got == pytest.approx(cmath.exp(2.0j - 2.5), abs=1e-15)

    def test_squeeze_vacuum_amplitude(self):
        f = normal_order(QuadraticGenerator(0.0, math.log(2.0), 0.0))
        got = sandwich(CoherentLabel(0j), CoherentLabel(0j), f)
        assert got == pytest.approx(0.8944271909999159, abs=1e-12)

    def test_rejects_non_unitary_factors(self):
        with pytest.raises(ValueError, match="not unitary"):
            sandwich(CoherentLabel(0j), CoherentLabel(0j),
                     NormalOrderFactors(1.3 + 0j, 0j))


class TestGaussianIntegral:
    def test_identity_form(self):
        assert _integral(np.eye(4), np.zeros(4)) == pytest.approx(TWO_PI_SQ, abs=1e-12)

    def test_scaled_form(self):
        got = _integral(2.0 * np.eye(4), np.zeros(4))
        assert got == pytest.approx(TWO_PI_SQ / 4.0, abs=1e-12)

    def test_linear_shift(self):
        got = _integral(np.eye(4), np.array([1.0, 0, 0, 0]))
        assert got == pytest.approx(TWO_PI_SQ * math.exp(0.5), abs=1e-11)

    def test_constant_term(self):
        assert _integral(np.eye(4), np.zeros(4), constant=0.3 - 0.1j) == pytest.approx(
            TWO_PI_SQ * cmath.exp(0.3 - 0.1j), abs=1e-11
        )

    def test_one_dimensional_against_quadrature(self):
        m = np.array([[2.0 + 3.0j]])
        j = np.array([0.3 - 0.2j])
        got, rest = _embedded(m, j, constant=0.1j)
        ref = rest * quad(
            lambda x: cmath.exp(-0.5 * m[0, 0] * x * x + j[0] * x + 0.1j),
            -30.0, 30.0, complex_func=True,
        )[0]
        assert got == pytest.approx(ref, abs=1e-10)

    def test_branch_beyond_principal_sheet(self):
        # det M = (1 + 2.5i)^4 has argument ~4.78 > pi, so the square root
        # must follow the analytic continuation, not the principal branch
        # of the scalar determinant.
        lam = 1.0 + 2.5j
        exact = TWO_PI_SQ / lam**2  # per-axis factorization
        got = _integral(lam * np.eye(4), np.zeros(4))
        assert got == pytest.approx(exact, abs=1e-12)
        naive = TWO_PI_SQ / cmath.sqrt(np.linalg.det(lam * np.eye(4)))
        assert abs(naive - exact) > abs(exact)  # wrong sheet flips the sign

    def test_matches_eigenvalue_reference(self):
        # Random complex symmetric forms with Re M > 0 and a semidefinite
        # Im M up to 30x Re M, so det M often winds past the cut of the
        # principal square root.
        rng = np.random.default_rng(23)
        worst = 0.0
        count = off_sheet = 0
        for n in (1, 2, 3, 4):
            for im_scale in (0.0, 0.3, 3.0, 30.0):
                for k in range(20):
                    a = rng.normal(size=(n, n))
                    re = a @ a.T + 0.05 * np.eye(n)
                    c = rng.normal(size=(n, n))
                    im = (-1) ** k * im_scale * np.trace(re) / n * (c @ c.T)
                    m = re + 1j * im
                    j = rng.normal(size=n) + 1j * rng.normal(size=n)
                    sqrt_det = _eigen_sqrt_det(m)
                    ref = ((2.0 * np.pi) ** (n / 2.0) / sqrt_det
                           * cmath.exp(0.5 * j @ np.linalg.solve(m, j) + 0.2 - 0.1j))
                    got, rest = _embedded(m, j, constant=0.2 - 0.1j)
                    ref *= rest
                    worst = max(worst, abs(got - ref) / abs(ref))
                    count += 1
                    off_sheet += abs(cmath.sqrt(np.linalg.det(m)) + sqrt_det) < abs(sqrt_det)
        assert count == 320 and off_sheet >= 50
        assert worst <= 1e-12

    def test_rejects_indefinite_real_part_with_accretive_pivots(self):
        # Re M = diag(1, -1) is indefinite, yet the complex pivots of M are
        # 1 and -1 - (2i)^2 / 1 = 3: both in the right half-plane. Only the
        # factorization of Re M can reject this form.
        m = np.array([[1.0, 2.0j], [2.0j, -1.0]])
        with pytest.raises(NonConvergentError, match="not positive definite"):
            _embedded(m, np.zeros(2))

    def test_rejects_indefinite_real_part(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(NonConvergentError):
            _integral(m, np.zeros(4))

    def test_leaves_its_inputs_unchanged(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 4, 4))
        m = (a @ a.T + np.eye(4) + 1j * (b + b.T)).tolist()
        j = (rng.normal(size=4) + 1j * rng.normal(size=4)).tolist()
        m_before, j_before = [row[:] for row in m], j[:]
        gaussian_integral(m, j, 0.3)
        assert m == m_before and j == j_before

    def test_rejects_a_form_that_is_not_4x4(self):
        with pytest.raises(ValueError, match="unpack"):
            gaussian_integral(np.eye(3).tolist(), [0.0, 0.0, 0.0])


class TestKernelViaIwop:
    def test_free_particle_frozen_value(self):
        got = kernel_via_iwop(QuadraticGenerator(1.0, 0.0, 0.0), 0.0, 1.0)
        assert got == pytest.approx(FREE_KERNEL_0_TO_1, abs=1e-12)

    def test_oscillator_quarter_period(self):
        got = kernel_via_iwop(QuadraticGenerator(np.pi / 2, 0.0, np.pi / 2), 1.0, 1.0)
        ref = cmath.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi) * cmath.exp(-1j)
        assert got == pytest.approx(OSC_KERNEL_1_TO_1, abs=1e-12)
        assert got == pytest.approx(ref, abs=1e-12)


def test_focal_error_does_not_need_unitary_factors():
    # (0, 20, 0) is focal (B = 0), and its rounded (s, r) fail the unitarity
    # guard, so the caustic guard must come first.
    g = QuadraticGenerator(0.0, 20.0, 0.0)
    with pytest.raises(ValueError):
        normal_order(g).require_unitary()
    with pytest.raises(FocalPointError):
        kernel_via_iwop(g, 0.0, 1.0)
