"""Tests for the aggregated invariant suites behind `quadprop verify`."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np

from quadprop import cli, coherent_iwop, verify

# Unit tests leave these sweeps to verify, and the acceptance criteria read
# their results, so a dropped or renamed check would silently remove coverage.
EXPECTED_CHECKS = {
    "lie_core": {"unitarity", "seam_continuity", "fock_equivalence"},
    "symplectic": {"determinant", "matrix_exp_oracle", "sr_dictionary",
                   "dictionary_roundtrip", "composition_chain"},
    "propagator": {"dual_form", "generating_roundtrip", "kernel_group", "convolve_unitarity"},
    "iwop": {"completeness", "dual_route", "sandwich_fock"},
    "oracle": {"fock_commutator", "norm_conservation", "end_to_end"},
}


def test_fresh_build_passes(verify_summary):
    assert verify_summary["pass"] is True


def test_summary_schema(verify_summary):
    assert verify_summary["suites"].keys() == EXPECTED_CHECKS.keys()
    for name, suite in verify_summary["suites"].items():
        assert suite["checks"].keys() == EXPECTED_CHECKS[name]
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
