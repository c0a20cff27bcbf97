"""Unit tests for kernels, the generating function, and wavepacket evolution."""

import cmath
import hashlib
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import trapezoid

from quadprop import errors
from quadprop.coherent_iwop import CoherentLabel, kernel_via_iwop, sandwich
from quadprop.errors import FocalPointError, NonConvergentError
from quadprop.lie_core import NormalOrderFactors, QuadraticGenerator, normal_order
from quadprop.propagator import (
    ComplexGaussian,
    GaussianKernel,
    GaussianWavepacket,
    classical_map_from_w,
    compose_kernels,
    convolve,
    generating_function,
    kernel_from_abcd,
    kernel_from_sr,
    named_generator,
)
from quadprop.symplectic import (
    AbcdMatrix,
    abcd_from_generator,
    abcd_from_sr,
    sr_from_abcd,
)
from quadprop.verify import random_generators

# Frozen reference: free-particle kernel value K(Q=1, q=0) at m = t = 1,
# computed independently at 40-digit precision before the build.
FREE_KERNEL_0_TO_1 = 0.38280491754448324 - 0.11231802257721920j

OSC_QUARTER = AbcdMatrix(0.0, 1.0, -1.0, 0.0)
FREE_UNIT = AbcdMatrix(1.0, 1.0, 0.0, 1.0)


class TestKernelFromSr:
    def test_quarter_period_rotation(self):
        k = kernel_from_sr(NormalOrderFactors(1j, 0j))
        ref = cmath.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi)
        assert k.prefactor == pytest.approx(ref, abs=1e-14)
        assert k.coef_qQ == pytest.approx(-1j, abs=1e-14)
        assert abs(k.coef_qq) < 1e-14
        assert abs(k.coef_QQ) < 1e-14
        # same kernel through the matrix route
        k2 = kernel_from_abcd(OSC_QUARTER)
        for q, Q in [(0.3, -1.2), (1.0, 1.0), (-2.0, 0.5)]:
            assert k.evaluate(q, Q) == pytest.approx(k2.evaluate(q, Q), abs=1e-14)

    def test_free_particle_coefficients(self):
        k = kernel_from_sr(NormalOrderFactors(1.0 + 0.5j, -0.5j))
        assert k.coef_qQ == pytest.approx(-1j, abs=1e-14)
        assert k.coef_qq == pytest.approx(0.5j, abs=1e-14)
        assert k.coef_QQ == pytest.approx(0.5j, abs=1e-14)
        assert k.evaluate(0.0, 1.0) == pytest.approx(FREE_KERNEL_0_TO_1, abs=1e-12)

    def test_rejects_non_unitary_factors(self):
        with pytest.raises(ValueError, match="not unitary"):
            kernel_from_sr(NormalOrderFactors(2.0 + 0j, 0j))


class TestKernelFromAbcd:
    def test_oscillator_closed_form(self):
        k = kernel_from_abcd(OSC_QUARTER)
        pref = cmath.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi)
        for q in (-1.5, 0.0, 2.0):
            for Q in (-0.5, 1.0):
                ref = pref * cmath.exp(-1j * q * Q)
                assert k.evaluate(q, Q) == pytest.approx(ref, abs=1e-13)

    def test_free_closed_form(self):
        k = kernel_from_abcd(FREE_UNIT)
        pref = cmath.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi)
        for q in (-1.5, 0.0, 2.0):
            for Q in (-0.5, 1.0):
                ref = pref * cmath.exp(0.5j * (q - Q) ** 2)
                assert k.evaluate(q, Q) == pytest.approx(ref, abs=1e-13)

    def test_frozen_value(self):
        k = kernel_from_abcd(FREE_UNIT)
        assert k.evaluate(0.0, 1.0) == pytest.approx(FREE_KERNEL_0_TO_1, abs=1e-12)

    def test_negative_b_branch(self):
        k = kernel_from_abcd(AbcdMatrix(1.0, -1.0, 0.0, 1.0))
        assert cmath.phase(k.prefactor) == pytest.approx(np.pi / 4, abs=1e-14)

    def test_exponent_structure_random(self):
        rng = np.random.default_rng(11)
        for g in random_generators(rng, 300, scale=2.0):
            m = abcd_from_generator(g)
            if abs(m.b) < 1e-2:
                continue
            k = kernel_from_abcd(m)
            w = generating_function(m)  # the exponent is -i W, term by term
            assert (k.coef_qQ, k.coef_qq, k.coef_QQ) == (
                -1j * w.inv_b, -1j * -w.a_over_2b, -1j * -w.d_over_2b)
            assert abs(k.prefactor) == pytest.approx(
                1.0 / math.sqrt(2 * np.pi * abs(m.b)), abs=1e-12
            )


class TestGeneratingFunction:
    def test_free_particle_form(self):
        w = generating_function(FREE_UNIT)
        for q, Q in [(0.0, 0.0), (1.0, 2.0), (-0.7, 0.3)]:
            assert w.evaluate(q, Q) == pytest.approx(q * Q - 0.5 * q * q - 0.5 * Q * Q)

    def test_no_constant_term(self):
        rng = np.random.default_rng(12)
        for g in random_generators(rng, 100, scale=2.0):
            m = abcd_from_generator(g)
            if abs(m.b) < 1e-2:
                continue
            assert generating_function(m).evaluate(0.0, 0.0) == 0.0

    def test_oscillator_eighth_period_value(self):
        m = abcd_from_generator(named_generator("harmonic", 1.0, 1.0, np.pi / 4))
        w = generating_function(m)
        assert w.evaluate(1.0, 1.0) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


class TestClassicalMap:
    def test_free_flight(self):
        w = generating_function(FREE_UNIT)
        p, P = classical_map_from_w(w, 0.0, 1.0)
        assert p == pytest.approx(1.0)
        assert P == pytest.approx(1.0)

    def test_origin_maps_to_origin(self):
        rng = np.random.default_rng(14)
        for g in random_generators(rng, 50, scale=2.0):
            m = abcd_from_generator(g)
            if abs(m.b) < 1e-2:
                continue
            p, P = classical_map_from_w(generating_function(m), 0.0, 0.0)
            assert p == 0.0 and P == 0.0

    def test_quarter_rotation_sends_momentum_to_position(self):
        w = generating_function(OSC_QUARTER)
        p, P = classical_map_from_w(w, 0.0, 1.0)
        assert p == pytest.approx(1.0, abs=1e-14)
        assert P == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self):
        h = 1e-6
        for m in (FREE_UNIT, OSC_QUARTER,
                  abcd_from_generator(QuadraticGenerator(0.8, 0.3, -0.4))):
            w = generating_function(m)
            for q, Q in [(0.4, -1.1), (-2.0, 0.9)]:
                p, P = classical_map_from_w(w, q, Q)
                p_fd = (w.evaluate(q + h, Q) - w.evaluate(q - h, Q)) / (2 * h)
                P_fd = -(w.evaluate(q, Q + h) - w.evaluate(q, Q - h)) / (2 * h)
                assert p_fd == pytest.approx(p, abs=1e-6)
                assert P_fd == pytest.approx(P, abs=1e-6)


class TestWavepacket:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GaussianWavepacket(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianWavepacket(0.0, 0.0, -1.0)

    def test_normalized_on_construction(self):
        for w in (0.3, 1.0, 2.7):
            psi = GaussianWavepacket(1.2, -0.7, w, phase=0.4)
            assert psi.to_complex().norm() == pytest.approx(1.0, abs=1e-12)

    def test_norm_against_quadrature(self):
        psi = GaussianWavepacket(0.5, 2.0, 1.3).to_complex()
        x = np.linspace(-20, 20, 40001)
        num = math.sqrt(trapezoid(np.abs(psi.evaluate(x)) ** 2, x))
        assert psi.norm() == pytest.approx(num, abs=1e-9)

    def test_moments_against_quadrature(self):
        psi = GaussianWavepacket(-0.8, 1.7, 0.9).to_complex()
        x = np.linspace(-20, 20, 40001)
        vals = psi.evaluate(x)
        dens = np.abs(vals) ** 2
        mean_q = trapezoid(x * dens, x)
        assert psi.mean_position() == pytest.approx(mean_q, abs=1e-9)
        dpsi = np.gradient(vals, x)
        mean_p = trapezoid((vals.conjugate() * dpsi).imag, x)
        # second-order finite differences limit the oracle to ~1e-6 here
        assert psi.mean_momentum() == pytest.approx(mean_p, abs=1e-5)

    @pytest.mark.parametrize("center_q, width", [(39.0, 1.0), (-39.0, 1.0), (3.769e-99, 1e-100)],
                             ids=["amplitude-zero", "negative-center", "narrow-subnormal-factor"])
    def test_amplitude_underflow_cannot_be_sampled(self, center_q, width):
        # e^{-cq^2/2w^2} is 4.0e-298 at cq/w = 37 and 0 at 39, where amp *
        # exp(...) would be 0 * inf at the center. At cq/w = 37.69 it is
        # subnormal, and the narrow packet's (pi w^2)^(-1/4) of 1e50 lifts amp
        # to 2.6e-259, but e^{cq^2/2w^2} at the center overflows.
        assert abs(GaussianWavepacket(37.0 * width, 1.0, width).to_complex().amp) > 0.0
        with pytest.raises(ValueError, match="^cannot sample .*amplitude underflows"):
            GaussianWavepacket(center_q, 1.0, width).to_complex()

    def test_far_tail_is_zero_without_warnings(self):
        # x * x overflows at x = 1e200: exactly 0, and no warning (filterwarnings = error)
        psi = ComplexGaussian(-0.5 + 0j, 0j, 1 + 0j)
        assert psi.evaluate(1e200) == 0j
        np.testing.assert_array_equal(psi.evaluate(np.array([-1e200, 1e200])), [0j, 0j])

    def test_a_point_gives_the_bits_of_a_one_element_array(self):
        # a float, a numpy scalar and a 0-d array take the array's arithmetic
        psi = ComplexGaussian(-0.3 + 0.7j, 1.1 - 0.4j, 0.6 + 0.2j)
        for x in [*np.random.default_rng(0).normal(0.0, 3.0, 20).tolist(), 1e200, -1e200]:
            ref = psi.evaluate(np.array([x]))[0]
            for point in (x, np.float64(x), np.array(x)):
                assert psi.evaluate(point).tobytes() == ref.tobytes()


class TestConvolve:
    def test_short_time_is_near_identity(self):
        k = kernel_from_abcd(abcd_from_generator(named_generator("free", 1.0, 0.0, 1e-6)))
        psi = GaussianWavepacket(0.0, 0.0, 1.0)
        out = convolve(k, psi)
        x = np.linspace(-6.0, 6.0, 121)
        assert np.abs(out.evaluate(x) - psi.evaluate(x)).max() < 1e-5

    def test_free_flight_moves_center(self):
        k = kernel_from_abcd(FREE_UNIT)
        out = convolve(k, GaussianWavepacket(0.0, 1.0, 1.0))
        assert out.mean_position() == pytest.approx(1.0, abs=1e-12)
        assert out.mean_momentum() == pytest.approx(1.0, abs=1e-12)

    def test_near_half_period_rotation(self):
        t = np.pi - 0.01
        k = kernel_from_abcd(abcd_from_generator(named_generator("harmonic", 1.0, 1.0, t)))
        out = convolve(k, GaussianWavepacket(1.0, 0.0, 1.0))
        assert math.hypot(out.mean_position() + 1.0, out.mean_momentum()) < 2e-2

    def test_half_period_is_focal(self):
        with pytest.raises(FocalPointError):
            kernel_from_abcd(abcd_from_generator(named_generator("harmonic", 1.0, 1.0, np.pi)))

    def test_accepts_complex_gaussian_input(self):
        k = kernel_from_abcd(FREE_UNIT)
        psi = GaussianWavepacket(0.0, 1.0, 1.0)
        assert convolve(k, psi.to_complex()).mean_position() == pytest.approx(1.0)

    def test_non_convergent_combination(self):
        bad = GaussianKernel(prefactor=1.0, coef_qQ=0.0, coef_qq=1.0 + 0j, coef_QQ=-1.0 + 0j)
        with pytest.raises(NonConvergentError):
            convolve(bad, GaussianWavepacket(0.0, 0.0, 2.0))

    def test_evolved_state_against_quadrature(self):
        # direct numerical integral of K(Q, q) psi(q) against the closed form
        k = kernel_from_abcd(abcd_from_generator(QuadraticGenerator(0.7, 0.2, 0.4)))
        psi = GaussianWavepacket(0.5, -0.3, 1.1)
        out = convolve(k, psi)
        q = np.linspace(-30, 30, 120001)
        vals = psi.evaluate(q)
        for Q in (-1.0, 0.0, 1.5):
            num = trapezoid([k.evaluate(x, Q) for x in q.tolist()] * vals, q)
            assert out.evaluate(Q) == pytest.approx(num, abs=1e-7)


class TestComposeKernels:
    def test_free_steps_compose_exactly(self):
        k1 = kernel_from_abcd(FREE_UNIT)
        k12 = compose_kernels(k1, k1)
        ref = kernel_from_abcd(AbcdMatrix(1.0, 2.0, 0.0, 1.0))
        assert k12.coef_qQ == pytest.approx(ref.coef_qQ, abs=1e-14)
        assert k12.prefactor == pytest.approx(ref.prefactor, abs=1e-14)


class TestNamedGenerator:
    def test_harmonic_assignment(self):
        g = named_generator("harmonic", 1.0, 1.0, np.pi / 2)
        assert g == QuadraticGenerator(np.pi / 2, 0.0, np.pi / 2)

    def test_free_assignment(self):
        assert named_generator("free", 1.0, 123.0, 1.0) == QuadraticGenerator(1.0, 0.0, 0.0)

    def test_zero_frequency_limit_is_free(self):
        g = named_generator("harmonic", 2.0, 0.0, 3.0)
        assert g == QuadraticGenerator(1.5, 0.0, 0.0)

    def test_mass_scaling(self):
        g = named_generator("harmonic", 2.0, 3.0, 0.5)
        assert g.alpha == pytest.approx(0.25)
        assert g.gamma == pytest.approx(9.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            named_generator("free", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            named_generator("free", -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            named_generator("harmonic", 1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            named_generator("anharmonic", 1.0, 1.0, 1.0)
        # a non-finite time meets its own guard, not the generator's
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^time must be finite, got {t!r}$"):
                named_generator("free", 1.0, 0.0, t)


# sha256 of the reprs, one a line, of test_one_point_evaluation's four kernels
# at every point whose exponent is finite with real part below 708: the values
# of the scalar path that evaluate had beside a numpy array path, bit for bit
ONE_POINT_DIGEST = "13c1626e09b3d627f322dd73db8c0dc8311692cd6e6d951839ddda0a05c9d660"


def test_one_point_evaluation():
    k_abcd = kernel_from_abcd(abcd_from_generator(QuadraticGenerator(0.9, -0.2, 0.3)))
    k_sr = kernel_from_sr(normal_order(QuadraticGenerator(-1.3, 0.8, 2.1)))
    assert k_sr.prefactor.real != 0.0 and k_sr.prefactor.imag != 0.0
    k_comp = compose_kernels(k_sr, k_abcd)
    # Real exponent parts reach the range where exp overflows (Re >= 709.8)
    # and the band just below it (Re >= 708) where cmath.exp scales
    # differently from the C library.
    k_grow = GaussianKernel(prefactor=0.3 - 0.4j, coef_qQ=0.7 + 2.0j,
                            coef_qq=-0.1 + 0.5j, coef_QQ=60.0 + 1.0j)
    rng = np.random.default_rng(21)
    q = np.concatenate([np.linspace(-2, 2, 101), rng.uniform(-3, 3, 100),
                        [0.0, 0.0, 0.0, 1e200, 1.0, -4.0, 3.0]])
    Q = np.concatenate([np.linspace(-1, 3, 101), rng.uniform(-3, 3, 100),
                        [3.437, 3.44, 3.45, 1.0, 1e200, 2.0, -1.0]])
    pinned, ints = [], 0
    for k in (k_abcd, k_sr, k_comp, k_grow):
        for qi, Qi in zip(q, Q):
            got = [k.evaluate(cast(qi), cast(Qi)) for cast in (float, np.float64, np.array)]
            if qi.is_integer() and Qi.is_integer() and abs(qi) < 1e10 and abs(Qi) < 1e10:
                got.append(k.evaluate(int(qi), int(Qi)))
                ints += 1
            assert all(type(v) is complex for v in got)
            assert len({repr(v) for v in got}) == 1
            expo = k.coef_qQ * qi * Qi + k.coef_qq * qi * qi + k.coef_QQ * Qi * Qi
            if expo.real < 708.0 and cmath.isfinite(expo):
                pinned.append(repr(got[0]))
    assert ints >= 8 and len(pinned) == 821
    assert hashlib.sha256("\n".join(pinned).encode()).hexdigest() == ONE_POINT_DIGEST

    # exp overflows; the exponent's imaginary part is infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (k_grow.evaluate(0.0, 3.45), k_abcd.evaluate(1e200, 1.0)):
            assert type(value) is complex and not cmath.isfinite(value)
    with pytest.raises(TypeError):
        k_abcd.evaluate(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(TypeError):
        k_abcd.evaluate(0.0, np.array([0.0, 1.0]))


FOCAL_ABCD = AbcdMatrix(2.0, 0.0, 0.0, 0.5)  # a pure squeeze, B = 0
QUARTER_K = kernel_from_abcd(OSC_QUARTER)
# route: (its call at B = 0, its call on a map with B = b exactly); a free
# particle's alpha is B, and a quarter turn, then (b, 1, -1, 0), has B = b
FOCAL_ROUTES = {
    "kernel_from_sr": (lambda: kernel_from_sr(NormalOrderFactors(1.25 + 0j, -0.75 + 0j)),
                       lambda b: kernel_from_sr(normal_order(QuadraticGenerator(b, 0, 0)))),
    "kernel_from_abcd": (lambda: kernel_from_abcd(FOCAL_ABCD),
                         lambda b: kernel_from_abcd(AbcdMatrix(1.0, b, 0.0, 1.0))),
    "generating_function": (lambda: generating_function(FOCAL_ABCD),
                            lambda b: generating_function(AbcdMatrix(1.0, b, 0.0, 1.0))),
    "kernel_via_iwop": (lambda: kernel_via_iwop(QuadraticGenerator(0, math.log(2.0), 0), 0, 0),
                        lambda b: kernel_via_iwop(QuadraticGenerator(b, 0, 0), 0, 0)),
    "compose_kernels": (lambda: compose_kernels(QUARTER_K, QUARTER_K), lambda b:
                        compose_kernels(kernel_from_abcd(AbcdMatrix(b, 1, -1, 0)), QUARTER_K)),
}


@pytest.mark.parametrize("route", FOCAL_ROUTES)
def test_one_caustic_guard(route):
    at_zero, with_b = FOCAL_ROUTES[route]
    with pytest.raises(FocalPointError) as err:
        at_zero()
    assert type(err.value) is FocalPointError
    assert str(err.value) == "focal point: B=0, kernel degenerates to a delta function"
    for b in (0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12):
        if abs(b) < 1e-12:
            pytest.raises(FocalPointError, with_b, b)
        elif route == "kernel_via_iwop":
            # past the guard, the real part of its 4-d form is singular to |B| of about 3e-8
            pytest.raises(NonConvergentError, with_b, b)
        else:
            assert all(map(cmath.isfinite, astuple(with_b(b))))


NOT_UNITARY = NormalOrderFactors(2.0 + 0j, 0j)
NOT_SYMPLECTIC = AbcdMatrix(2.0, 1.0, 0.0, 1.0)
UNITARY_MSG = "factors are not unitary: |s|^2-|r|^2-1 = 3.000e+00"
SYMPLECTIC_MSG = "matrix is not symplectic: det-1 = 1.000e+00"
# NaN residuals must fail the guards too; an overflowed flow has A = inf, B = 0
NAN_FACTORS = NormalOrderFactors(complex(math.nan, 0.0), 0j)
# |s|^2 overflows a double: the residual is NaN, not an OverflowError
HUGE_FACTORS = NormalOrderFactors(1e200 + 0j, 0j)
OVERFLOWED = AbcdMatrix(math.inf, 0.0, 0.0, 0.0)
UNITARY_NAN_MSG = "factors are not unitary: |s|^2-|r|^2-1 = nan"
SYMPLECTIC_NAN_MSG = "matrix is not symplectic: det-1 = nan"


@pytest.mark.parametrize("call, message", [
    (lambda: abcd_from_sr(NOT_UNITARY), UNITARY_MSG),
    (lambda: kernel_from_sr(NOT_UNITARY), UNITARY_MSG),
    (lambda: sandwich(CoherentLabel(0j), CoherentLabel(0j), NOT_UNITARY), UNITARY_MSG),
    (lambda: sr_from_abcd(NOT_SYMPLECTIC), SYMPLECTIC_MSG),
    (lambda: kernel_from_abcd(NOT_SYMPLECTIC), SYMPLECTIC_MSG),
    (lambda: abcd_from_sr(NAN_FACTORS), UNITARY_NAN_MSG),
    (lambda: sandwich(CoherentLabel(0j), CoherentLabel(0j), NAN_FACTORS), UNITARY_NAN_MSG),
    (lambda: kernel_from_sr(HUGE_FACTORS), UNITARY_NAN_MSG),
    (lambda: sr_from_abcd(OVERFLOWED), SYMPLECTIC_NAN_MSG),
    (lambda: kernel_from_abcd(OVERFLOWED), SYMPLECTIC_NAN_MSG),
    (lambda: ComplexGaussian(0j, 0j, 1 + 0j), "Re(quad) must be negative, got 0.0"),
], ids=["abcd_from_sr", "kernel_from_sr", "sandwich", "sr_from_abcd", "kernel_from_abcd",
        "abcd_from_sr-nan", "sandwich-nan", "kernel_from_sr-overflow", "sr_from_abcd-nan",
        "kernel_from_abcd-nan", "ComplexGaussian"])
def test_invariant_guards_raise_plain_value_error(call, message):
    # The benchmark sorts these failures by exact type and message prefix.
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_one_tolerance_moves_both_guards(monkeypatch):
    # the unitary and the symplectic guard read the same errors.INVARIANT_TOL
    monkeypatch.setattr(errors, "INVARIANT_TOL", 2.0)
    assert sr_from_abcd(NOT_SYMPLECTIC) == NormalOrderFactors(1.5 + 0.5j, -0.5 - 0.5j)
    assert cmath.isfinite(kernel_from_abcd(NOT_SYMPLECTIC).evaluate(0.0, 1.0))
    with pytest.raises(ValueError) as err:
        abcd_from_sr(NOT_UNITARY)
    assert str(err.value) == UNITARY_MSG
