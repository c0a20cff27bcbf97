"""Unit tests for the su(1,1) mapping and the normal-ordered factorization."""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadprop import lie_core
from quadprop.lie_core import (
    QuadraticGenerator,
    _flow,
    normal_order,
    to_su11,
)
from quadprop.coherent_iwop import kernel_via_iwop
from quadprop.symplectic import abcd_from_generator
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


def _gc_gs_reference(x):
    """gc(x) and gs(x) of the double x in mpmath, at the caller's working precision."""
    rt = mpmath.sqrt(abs(mpmath.mpf(x)))
    if x > 0:
        return mpmath.cosh(rt), mpmath.sinh(rt) / rt
    if x < 0:
        return mpmath.cos(rt), mpmath.sin(rt) / rt
    return mpmath.mpf(1), mpmath.mpf(1)


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

    def test_against_mpmath(self):
        # 1000 log-uniform |x| in [1e-12, 1e5] of alternating sign, zero, the
        # points on either side of zero, and gc = 0 at x = -pi^2/4
        rng = np.random.default_rng(33)
        xs = ((-1.0) ** np.arange(1000) * 10.0 ** rng.uniform(-12.0, 5.0, 1000)).tolist()
        xs += [0.0, -1e-9, 1e-9, -1e-4, 1e-4, 1.0, -(math.pi**2) / 4.0]
        bad = []
        with mpmath.workdps(50):
            for x in xs:
                for name, got, ref in zip(("gc", "gs"), gc_gs(x), _gc_gs_reference(x)):
                    err = float(abs(mpmath.mpf(got) - ref))
                    # 1 ulp up to |x| = 1, where gc and gs lie in [0.5, 1.6]; beyond,
                    # cos/sin carry the long-double rounding of sqrt(-x) absolutely
                    f = abs(float(ref))
                    bound = math.ulp(f) if abs(x) <= 1.0 else 2.0**-52 * max(1.0, f)
                    if not err <= bound:
                        bad.append((x, name, err / bound))
        assert bad == []

    def test_nan_delta_sq_stays_nan(self, monkeypatch):
        # where long double is a 64-bit double, b*b - a*c at 1e200 is inf - inf
        monkeypatch.setattr(lie_core, "_ONE", np.float64(1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            *_, delta_sq, gcv, gsv = _flow(QuadraticGenerator(1e200, 1e200, 1e200))
        assert math.isnan(delta_sq) and math.isnan(gcv) and math.isnan(gsv)


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


class TestFlowMemo:
    """``_flow`` keeps its last (generator, flow) pair; no result may depend on it.

    Results are compared by ``repr``, which tells -0.0 from 0.0, so equal
    means the same bits. Each reference is computed on a fresh copy of the
    generator right after a call on an unrelated one, so it cannot come
    from the memo of the generator under test.
    """

    # elliptic with alpha == gamma (Im r is -0.0), hyperbolic, and elliptic at delta_sq = -4.6e-5
    GENS = [(1.0, 0.0, 1.0), (0.3, 2.5, -1.7), (1e-3, 2e-3, 0.05)]

    @staticmethod
    def _fresh(g):
        _flow(QuadraticGenerator(0.25, 0.5, 0.75))
        copy = QuadraticGenerator(g.alpha, g.beta, g.gamma)
        return repr(normal_order(copy)), repr(abcd_from_generator(copy))

    def test_interleaved_generators_keep_their_own_factors(self):
        g1, g2, g3 = (QuadraticGenerator(*v) for v in self.GENS)
        refs = {id(g): self._fresh(g) for g in (g1, g2, g3)}
        for g in (g1, g2, g1, g3, g1, g2, g2, g3):
            assert repr(normal_order(g)) == refs[id(g)][0]
            assert repr(abcd_from_generator(g)) == refs[id(g)][1]
        assert refs[id(g1)] != refs[id(g2)]

    def test_equal_but_distinct_generator_gives_the_same_bits(self):
        for v in self.GENS:
            g = QuadraticGenerator(*v)
            f, m = repr(normal_order(g)), repr(abcd_from_generator(g))
            twin = QuadraticGenerator(*v)
            assert twin is not g and twin == g
            assert repr(normal_order(twin)) == f
            assert repr(abcd_from_generator(twin)) == m

    def test_equal_generator_with_other_signed_zeros_gets_its_own_bits(self):
        # the memo is keyed by identity, not ==, under which -0.0 == 0.0
        plus, minus = QuadraticGenerator(0.0, 0.0, 0.0), QuadraticGenerator(-0.0, 0.0, -0.0)
        assert plus == minus
        ref_plus, ref_minus = self._fresh(plus), self._fresh(minus)
        assert ref_plus[0] != ref_minus[0]
        for g, ref in ((plus, ref_plus), (minus, ref_minus), (plus, ref_plus)):
            assert repr(normal_order(g)) == ref[0]
            assert repr(abcd_from_generator(g)) == ref[1]

    def test_threads_sharing_the_memo_keep_their_own_factors(self):
        # more threads than cores, switching often: a thread that paired one
        # generator with another's flow would see the wrong factors
        gens = [QuadraticGenerator(*v) for v in self.GENS] + [QuadraticGenerator(2.0, -0.4, 0.9)]
        refs = [self._fresh(g) for g in gens]
        wrong = []

        def work(k):
            g, ref = gens[k], refs[k]
            for _ in range(2000):
                if (repr(normal_order(g)), repr(abcd_from_generator(g))) != ref:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(gens))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_factors_after_kernel_via_iwop_match_a_fresh_copy(self):
        for v in self.GENS:
            g = QuadraticGenerator(*v)
            ref = self._fresh(g)
            kernel_via_iwop(g, 0.3, -0.7)
            assert repr(normal_order(g)) == ref[0]
            assert repr(abcd_from_generator(g)) == ref[1]
