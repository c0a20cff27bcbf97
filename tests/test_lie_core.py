"""Unit tests for the su(1,1) mapping and the normal-ordered factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadprop.lie_core import (
    QuadraticGenerator,
    _flow,
    normal_order,
    to_su11,
)
from quadprop.verify import random_generators


def gc_gs(x):
    """gc(x) and gs(x) from ``_flow`` of the generator (1, 0, -x), whose delta_sq is exactly x."""
    *_, delta_sq, gcv, gsv = _flow(QuadraticGenerator(1.0, 0.0, -x))
    assert delta_sq == x
    return float(gcv), float(gsv)


def _series_cosh1_sinh1():
    """Independent reference: cosh(1), sinh(1) summed term by term."""
    cosh1 = sinh1 = 0.0
    fact = 1.0
    for k in range(40):
        # fact == (2k)! when entering the loop body
        cosh1 += 1.0 / fact
        fact *= 2 * k + 1
        sinh1 += 1.0 / fact
        fact *= 2 * k + 2
    return cosh1, sinh1


class TestToSU11:
    def test_generic_triple(self):
        p = to_su11(QuadraticGenerator(1.0, 2.0, 3.0))
        assert p.tau == pytest.approx(2.0 - 1.0j)
        assert p.sigma == pytest.approx(-4.0)
        assert p.delta_sq == pytest.approx(1.0)

    def test_zero_generator(self):
        p = to_su11(QuadraticGenerator(0.0, 0.0, 0.0))
        assert p.tau == 0.0
        assert p.sigma == 0.0
        assert p.delta_sq == 0.0

    def test_isotropic_is_rotation_like(self):
        theta = 0.7
        p = to_su11(QuadraticGenerator(theta, 0.0, theta))
        assert p.tau == 0.0
        assert p.sigma == pytest.approx(-1.4)
        assert p.delta_sq == pytest.approx(-0.49)

    def test_delta_sq_consistent_with_tau_sigma(self):
        rng = np.random.default_rng(3)
        for g in random_generators(rng, 500):
            p = to_su11(g)
            recon = abs(p.tau) ** 2 - 0.25 * p.sigma**2
            scale = max(1.0, abs(p.tau) ** 2 + 0.25 * p.sigma**2)
            assert abs(p.delta_sq - recon) <= 1e-12 * scale

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuadraticGenerator(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            QuadraticGenerator(0.0, math.inf, 0.0)


class TestGcGs:
    def test_values_at_zero(self):
        assert gc_gs(0.0) == (1.0, 1.0)

    def test_trigonometric_branch(self):
        gc, gs = gc_gs(-(np.pi**2) / 4.0)
        assert gc == pytest.approx(0.0, abs=1e-15)
        assert gs == pytest.approx(2.0 / np.pi, abs=1e-15)

    def test_hyperbolic_branch_against_series(self):
        cosh1, sinh1 = _series_cosh1_sinh1()
        gc, gs = gc_gs(1.0)
        assert gc == pytest.approx(cosh1, abs=1e-14)
        assert gs == pytest.approx(sinh1, abs=1e-14)
        # frozen reference values
        assert gc == pytest.approx(1.5430806348152437, abs=1e-12)
        assert gs == pytest.approx(1.1752011936438014, abs=1e-12)

    @pytest.mark.parametrize("x", [-1e-9, 1e-9])
    def test_continuous_near_zero(self, x):
        gc, gs = gc_gs(x)
        assert abs(gc - 1.0) < 1e-7
        assert abs(gs - 1.0) < 1e-7

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_series_matches_direct_at_cutoff(self, side):
        # both expressions must agree where the implementation switches over
        x = side * 1e-4
        gc, gs = gc_gs(x)
        direct = math.cosh(math.sqrt(x)) if x > 0 else math.cos(math.sqrt(-x))
        assert gc == pytest.approx(direct, abs=1e-14)
        direct = (
            math.sinh(math.sqrt(x)) / math.sqrt(x)
            if x > 0
            else math.sin(math.sqrt(-x)) / math.sqrt(-x)
        )
        assert gs == pytest.approx(direct, abs=1e-14)


class TestNormalOrder:
    def test_identity(self):
        f = normal_order(QuadraticGenerator(0.0, 0.0, 0.0))
        assert f.s == 1.0
        assert f.r == 0.0

    def test_pure_squeeze(self):
        f = normal_order(QuadraticGenerator(0.0, math.log(2.0), 0.0))
        assert f.s == pytest.approx(1.25, abs=1e-14)
        assert f.r == pytest.approx(-0.75, abs=1e-14)

    def test_isotropic_rotation_phase(self):
        theta = 0.7
        f = normal_order(QuadraticGenerator(theta, 0.0, theta))
        assert f.s == pytest.approx(
            complex(0.7648421872844885, 0.6442176872376911), abs=1e-14
        )
        assert abs(f.r) < 1e-15

    def test_modulus_of_s_at_least_one(self):
        rng = np.random.default_rng(8)
        for g in random_generators(rng, 1000):
            assert abs(normal_order(g).s) >= 1.0 - 1e-12


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
    gamma=st.floats(-3.0, 3.0),
)
def test_unitarity_property(alpha, beta, gamma):
    f = normal_order(QuadraticGenerator(alpha, beta, gamma))
    assert abs(f.unitarity_residual()) < 1e-10
