"""Tests for the aggregated invariant suites behind `quadprop verify`."""

import cmath
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from quadprop import cli, coherent_iwop, propagator, verify
from test_acceptance import VERIFY_CHECKS


def test_fresh_build_passes(verify_summary):
    assert verify_summary["pass"] is True


def test_summary_schema(verify_summary):
    # Unit tests leave verify's sweeps to it, so a dropped or renamed check
    # would silently remove coverage: verify runs exactly the checks of the
    # acceptance table, in its order.
    suites = verify_summary["suites"]
    assert [f"{name}.{check}" for name, suite in suites.items()
            for check in suite["checks"]] == list(VERIFY_CHECKS)
    for suite in suites.values():
        assert set(suite.keys()) == {"pass", "max_residual", "checks"}
        assert suite["pass"] is True
        for check in suite["checks"].values():
            assert set(check.keys()) == {"residual", "tolerance", "pass"}
            assert check["residual"] <= check["tolerance"]
        assert suite["max_residual"] == max(
            c["residual"] for c in suite["checks"].values()
        )


def test_summary_is_json_serializable(verify_summary):
    text = json.dumps(verify_summary, sort_keys=True)
    assert json.loads(text) == verify_summary


def _small_sample(monkeypatch):
    # eight generators per random sample, so that a test of one check does
    # not pay for the whole 10300-generator sweep
    real = verify.random_generators
    monkeypatch.setattr(verify, "random_generators",
                        lambda rng, n, scale=5.0: real(rng, 8, scale))


def test_fault_injection_trips_unitarity(monkeypatch):
    _small_sample(monkeypatch)
    real = verify.normal_order
    monkeypatch.setattr(verify, "normal_order", lambda g: replace(real(g), s=real(g).s + 1e-6))
    suite = verify.lie_core_suite(np.random.default_rng(verify.DEFAULT_SEED))
    assert suite["pass"] is False
    assert suite["checks"]["unitarity"]["pass"] is False
    assert suite["checks"]["unitarity"]["residual"] > 1e-7


def test_fault_in_the_matrix_element_trips_both_routes(monkeypatch):
    # r/s and r*/s swapped in the one owner of <z1|U|z2>'s coefficients
    # reaches both the sandwich and the kernel assembled from the same numbers
    _small_sample(monkeypatch)
    real = coherent_iwop._element

    def swapped(f):
        ros, inv_s, rcs, root_s = real(f)
        return rcs, inv_s, ros, root_s

    monkeypatch.setattr(coherent_iwop, "_element", swapped)
    # the completeness quadrature reads only the overlaps, and costs 0.1 s
    monkeypatch.setattr(verify, "_completeness_quadrature", lambda: 1.0)
    suite = verify.iwop_suite(np.random.default_rng(verify.DEFAULT_SEED))
    assert suite["checks"]["dual_route"]["pass"] is False
    assert suite["checks"]["sandwich_fock"]["pass"] is False


def test_phase_fault_trips_kernel_group(monkeypatch):
    # a constant phase e^{i 1e-7} on every matrix-route kernel leaves the
    # moduli and the exponent alone; the composed prefactor carries it twice
    # and the direct one once, so the squared ratio is off by 2e-7
    real = propagator.kernel_from_abcd

    def turned(m):
        k = real(m)
        return replace(k, prefactor=k.prefactor * cmath.exp(1e-7j))

    monkeypatch.setattr(propagator, "kernel_from_abcd", turned)
    suite = verify.propagator_suite(np.random.default_rng(verify.DEFAULT_SEED + 2))
    check = suite["checks"]["kernel_group"]
    assert check["pass"] is False
    assert check["residual"] == pytest.approx(2e-7, rel=1e-3)


def test_nan_residual_fails_its_check(monkeypatch, capsys):
    # s of the 5th unitarity generator becomes NaN, which max(worst, nan) drops
    _small_sample(monkeypatch)
    calls = itertools.count()
    real = verify.normal_order

    def nan_on_fifth(g):
        f = real(g)
        return replace(f, s=complex(math.nan)) if next(calls) == 4 else f

    monkeypatch.setattr(verify, "normal_order", nan_on_fifth)
    suite = verify.lie_core_suite(np.random.default_rng(verify.DEFAULT_SEED))
    assert suite["checks"]["unitarity"] == {"residual": None, "tolerance": 1e-10, "pass": False}
    assert suite["pass"] is False and suite["max_residual"] is None

    monkeypatch.setattr(verify, "run_all", lambda: {
        "pass": False, "suites": {"lie_core": suite}})
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
    assert json.loads(capsys.readouterr().out)["suites"]["lie_core"] == suite


def test_sampling_helpers_cover_both_signs():
    rng = np.random.default_rng(0)
    gens = verify.random_generators(rng, 2000)
    discs = [g.beta**2 - g.alpha * g.gamma for g in gens]
    assert any(d > 1.0 for d in discs)
    assert any(d < -1.0 for d in discs)
    near = verify.near_degenerate_generators(rng, 200)
    assert all(abs(g.beta**2 - g.alpha * g.gamma) < 1e-6 for g in near)


def test_a_raising_suite_fails_and_the_others_still_run(monkeypatch, capsys):
    # a 1e-9 relative fault in s trips the unitarity guard inside the
    # symplectic and propagator suites, and a drifted overlap the iwop
    # suite's completeness assertion; verify still prints its summary
    _small_sample(monkeypatch)
    real = verify.normal_order
    monkeypatch.setattr(verify, "normal_order",
                        lambda g: replace(real(g), s=real(g).s * (1 + 1e-9)))
    monkeypatch.setattr(coherent_iwop, "overlap_position", lambda z, x: 0.0)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites["lie_core"]["checks"]["unitarity"]["pass"] is False
    assert "error" not in suites["lie_core"] and suites["oracle"]["pass"] is True
    unitary = "ValueError: factors are not unitary: |s|^2-|r|^2-1 = "
    for name, error in [("symplectic", unitary), ("propagator", unitary), ("iwop", (
            "AssertionError: completeness integrand drifted from overlap_position"))]:
        assert suites[name].pop("error").startswith(error)
        assert suites[name] == {"pass": False, "max_residual": None, "checks": {}}
