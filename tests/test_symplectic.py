"""Unit tests for ABCD matrices, dictionaries, composition, and schedules."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadprop.lie_core import NormalOrderFactors, QuadraticGenerator, normal_order
from quadprop.symplectic import (
    AbcdMatrix,
    ScheduleError,
    _expm,
    abcd_from_generator,
    abcd_from_sr,
    compose,
    compose_schedule,
    load_schedule,
    matrix_exp_oracle,
    sr_from_abcd,
)
from quadprop.propagator import named_generator
from quadprop.verify import near_degenerate_generators, random_generators


def _assert_matrix(m: AbcdMatrix, expected, tol=1e-12):
    got = (m.a, m.b, m.c, m.d)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=tol)


class TestAbcdFromGenerator:
    def test_harmonic_oscillator_quarter_period(self):
        g = named_generator("harmonic", 1.0, 1.0, np.pi / 2)
        _assert_matrix(abcd_from_generator(g), (0.0, 1.0, -1.0, 0.0))

    def test_free_particle(self):
        _assert_matrix(abcd_from_generator(QuadraticGenerator(1.0, 0.0, 0.0)),
                       (1.0, 1.0, 0.0, 1.0))

    def test_pure_squeeze(self):
        m = abcd_from_generator(QuadraticGenerator(0.0, math.log(2.0), 0.0))
        _assert_matrix(m, (2.0, 0.0, 0.0, 0.5), tol=1e-14)
        o = matrix_exp_oracle(QuadraticGenerator(0.0, math.log(2.0), 0.0))
        _assert_matrix(o, (2.0, 0.0, 0.0, 0.5), tol=1e-12)


class TestMatrixExpOracle:
    def test_nilpotent_generator(self):
        _assert_matrix(matrix_exp_oracle(QuadraticGenerator(1.0, 0.0, 0.0)),
                       (1.0, 1.0, 0.0, 1.0), tol=1e-15)

    def test_zero_generator(self):
        _assert_matrix(matrix_exp_oracle(QuadraticGenerator(0.0, 0.0, 0.0)),
                       (1.0, 0.0, 0.0, 1.0), tol=0.0)

    def test_quarter_rotation(self):
        m = matrix_exp_oracle(QuadraticGenerator(np.pi / 2, 0.0, np.pi / 2))
        _assert_matrix(m, (0.0, 1.0, -1.0, 0.0), tol=1e-13)

    def test_stack_matches_each_matrix(self):
        # The stack shares the squaring count of its largest norm, so the
        # smaller matrices are squared more often than alone: agreement is
        # to rounding (about 2e-14 relative at norms near 10), not bitwise.
        # The zero generator leads, so a count taken from the first or the
        # smallest matrix leaves the Taylor series far outside its range.
        rng = np.random.default_rng(3)
        gens = ([QuadraticGenerator(0.0, 0.0, 0.0)] + random_generators(rng, 200)
                + near_degenerate_generators(rng, 20))
        stack = _expm(np.array([[[g.beta, g.alpha], [-g.gamma, -g.beta]] for g in gens]))
        assert stack.shape == (221, 2, 2)
        for g, got in zip(gens, stack):
            o = matrix_exp_oracle(g)
            ref = np.array([[o.a, o.b], [o.c, o.d]])
            assert np.abs(got - ref).max() <= 5e-14 * np.abs(ref).max()


class TestDictionaries:
    def test_identity_factors(self):
        _assert_matrix(abcd_from_sr(NormalOrderFactors(1.0 + 0j, 0j)),
                       (1.0, 0.0, 0.0, 1.0), tol=0.0)

    def test_pure_squeeze_factors(self):
        m = abcd_from_sr(NormalOrderFactors(1.25 + 0j, -0.75 + 0j))
        _assert_matrix(m, (2.0, 0.0, 0.0, 0.5), tol=1e-15)
        # round trip with the factorization of the matching generator
        f = normal_order(QuadraticGenerator(0.0, math.log(2.0), 0.0))
        m2 = abcd_from_sr(f)
        _assert_matrix(m2, (2.0, 0.0, 0.0, 0.5), tol=1e-14)

    def test_rotation_factors(self):
        s = np.exp(1j * np.pi / 4)
        m = abcd_from_sr(NormalOrderFactors(complex(s), 0j))
        rt = math.sqrt(2.0) / 2.0
        _assert_matrix(m, (rt, rt, -rt, rt), tol=1e-15)
        m2 = abcd_from_generator(QuadraticGenerator(np.pi / 4, 0.0, np.pi / 4))
        _assert_matrix(m2, (rt, rt, -rt, rt), tol=1e-14)

    def test_sr_from_abcd_examples(self):
        f = sr_from_abcd(AbcdMatrix.identity())
        assert f.s == 1.0 and f.r == 0.0
        f = sr_from_abcd(AbcdMatrix(2.0, 0.0, 0.0, 0.5))
        assert f.s == pytest.approx(1.25) and f.r == pytest.approx(-0.75)
        f = sr_from_abcd(AbcdMatrix(0.0, 1.0, -1.0, 0.0))
        assert f.s == pytest.approx(1j) and abs(f.r) == 0.0

    def test_free_particle_factors(self):
        f = sr_from_abcd(AbcdMatrix(1.0, 1.0, 0.0, 1.0))
        assert f.s == pytest.approx(1.0 + 0.5j)
        assert f.r == pytest.approx(-0.5j)

    def test_rejects_non_unitary_factors(self):
        with pytest.raises(ValueError, match="not unitary"):
            abcd_from_sr(NormalOrderFactors(1.1 + 0j, 0j))

    def test_rejects_non_symplectic_matrix(self):
        with pytest.raises(ValueError, match="not symplectic"):
            sr_from_abcd(AbcdMatrix(2.0, 0.0, 0.0, 1.0))


class TestComposeInvert:
    def test_two_free_half_steps(self):
        half = abcd_from_generator(QuadraticGenerator(0.5, 0.0, 0.0))
        _assert_matrix(compose(half, half), (1.0, 1.0, 0.0, 1.0), tol=1e-15)

    def test_rotation_angles_add(self):
        quarter = abcd_from_generator(named_generator("harmonic", 1.0, 1.0, np.pi / 4))
        total = compose(quarter, quarter)
        ref = abcd_from_generator(named_generator("harmonic", 1.0, 1.0, np.pi / 2))
        _assert_matrix(total, (ref.a, ref.b, ref.c, ref.d), tol=1e-14)

    def test_reversed_flow_cancels(self):
        rng = np.random.default_rng(5)
        for g in random_generators(rng, 200, scale=2.0):
            back = abcd_from_generator(QuadraticGenerator(-g.alpha, -g.beta, -g.gamma))
            _assert_matrix(compose(back, abcd_from_generator(g)), (1.0, 0.0, 0.0, 1.0), tol=1e-12)

    def test_returns_plain_product_when_det_drifts(self):
        # Dyadic entries, so every product and sum below is exact in binary.
        for a in (1.0 + 2.0**-22, 1.0 + 2.0**-10):
            m2, m1 = AbcdMatrix(a, 1.0, 0.0, 1.0), AbcdMatrix(1.0, 0.0, 0.5, 1.0)
            assert compose(m2, m1) == AbcdMatrix(a + 0.5, 1.0, 0.5, 1.0)
            assert compose(m2, m1).symplectic_residual() == a - 1.0


@settings(max_examples=200, deadline=None)
@given(
    a1=st.floats(-3.0, 3.0), b1=st.floats(-3.0, 3.0), c1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 3.0), b2=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0),
)
def test_composition_preserves_symplecticity(a1, b1, c1, a2, b2, c2):
    m1 = abcd_from_generator(QuadraticGenerator(a1, b1, c1))
    m2 = abcd_from_generator(QuadraticGenerator(a2, b2, c2))
    assert abs(compose(m2, m1).symplectic_residual()) < 1e-9


class TestComposeSchedule:
    # 300 steps uniform in [-0.5, 0.5]^3: |det-1| of the running product
    # grows like eps |M|^2 and first passes INVARIANT_TOL at step 264.
    STEPS = [QuadraticGenerator(*row) for row in
             np.random.default_rng(50).uniform(-0.5, 0.5, size=(300, 3)).tolist()]

    def test_accepted_product_matches_high_precision_product(self):
        steps = self.STEPS[:263]
        got = compose_schedule(steps)
        with mpmath.workdps(50):
            ref = mpmath.eye(2)
            for g in steps:
                m = abcd_from_generator(g)
                ref = mpmath.matrix([[m.a, m.b], [m.c, m.d]]) * ref
            err = mpmath.mnorm(mpmath.matrix([[got.a, got.b], [got.c, got.d]]) - ref, 1)
            rel = float(err / mpmath.mnorm(ref, 1))
        assert rel <= 1e-12

    @pytest.mark.parametrize("steps, message", [
        (STEPS, r"^matrix is not symplectic: det-1 = \S+ \(schedule step 264\)$"),
        # overflow: A = inf and B = 0, so det-1 is NaN
        ([QuadraticGenerator(0.0, 1000.0, 0.0)],
         r"^matrix is not symplectic: det-1 = nan \(schedule step 1\)$"),
    ], ids=["drift", "overflow"])
    def test_names_the_step_where_the_product_left_the_group(self, steps, message):
        with pytest.raises(ValueError, match=message):
            compose_schedule(steps)


class TestSchedule:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "steps.sched"
        path.write_text(
            "# two-step drive\n"
            "1.0 0.0 0.0   # free flight\n"
            "\n"
            "0.5 -0.25 2e-1\n"
        )
        steps = load_schedule(path)
        assert steps == [
            QuadraticGenerator(1.0, 0.0, 0.0),
            QuadraticGenerator(0.5, -0.25, 0.2),
        ]

    def test_empty_file_gives_empty_schedule(self, tmp_path):
        path = tmp_path / "empty.sched"
        path.write_text("# nothing here\n\n")
        assert load_schedule(path) == []

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("1.0 2.0\n")
        with pytest.raises(ScheduleError, match="expected 'alpha beta gamma'"):
            load_schedule(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("1.0 two 3.0\n")
        with pytest.raises(ScheduleError):
            load_schedule(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("1.0 nan 3.0\n")
        with pytest.raises(ScheduleError, match="finite"):
            load_schedule(path)

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path):
        # some editors start a UTF-8 file with U+FEFF; only there is it no data
        plain, marked = tmp_path / "plain.sched", tmp_path / "marked.sched"
        plain.write_bytes(b"1 0 1\n0.5 -0.25 2e-1\n")
        marked.write_bytes(b"\xef\xbb\xbf1 0 1\n0.5 -0.25 2e-1\n")
        assert load_schedule(marked) == load_schedule(plain)
        marked.write_bytes(b"1 0 1\n\xef\xbb\xbf0.5 -0.25 2e-1\n")
        with pytest.raises(ScheduleError, match=f"^{re.escape(str(marked))}:2: "):
            load_schedule(marked)

    def test_non_utf8_file(self, tmp_path):
        # the error names the offending byte's offset in the file, counting a
        # byte-order mark and every byte past the first 8 KiB
        path = tmp_path / "latin1.sched"
        for head in (b"", b"\xef\xbb\xbf", b"1.0 0.0 0.0\n" * 1000):
            body = head + b"1.0 0.0 0.0\n# \xe9tape\n"
            path.write_bytes(body)
            with pytest.raises(ScheduleError, match=f"^{re.escape(str(path))}: not UTF-8 text: "
                               f".* byte 0xe9 in position {body.index(0xe9)}: "):
                load_schedule(path)
