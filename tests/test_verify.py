"""Tests for the aggregated invariant suites behind `quadprop verify`."""

import json

import numpy as np
import pytest

from quadprop import verify

# Unit tests leave these sweeps to verify, so a dropped or renamed check
# would silently remove coverage.
EXPECTED_CHECKS = {
    "lie_core": {"unitarity", "seam_continuity", "fock_equivalence"},
    "symplectic": {"determinant", "matrix_exp_oracle", "sr_dictionary",
                   "dictionary_roundtrip", "composition_chain"},
    "propagator": {"dual_form", "generating_roundtrip", "kernel_group", "convolve_unitarity"},
    "iwop": {"completeness", "dual_route", "identity_limit"},
    "oracle": {"fock_commutator", "norm_conservation", "end_to_end"},
}


@pytest.fixture(scope="module")
def summary():
    return verify.run_all()


def test_fresh_build_passes(summary):
    assert summary["pass"] is True


def test_summary_schema(summary):
    assert summary["suites"].keys() == EXPECTED_CHECKS.keys()
    for name, suite in summary["suites"].items():
        assert suite["checks"].keys() == EXPECTED_CHECKS[name]
        assert set(suite.keys()) == {"pass", "max_residual", "checks"}
        assert suite["pass"] is True
        for check in suite["checks"].values():
            assert set(check.keys()) == {"residual", "tolerance", "pass"}
            assert check["residual"] <= check["tolerance"]
        assert suite["max_residual"] == max(
            c["residual"] for c in suite["checks"].values()
        )


def test_summary_is_json_serializable(summary):
    text = json.dumps(summary, sort_keys=True)
    assert json.loads(text) == summary


def test_fault_injection_trips_unitarity():
    suite = verify.lie_core_suite(np.random.default_rng(verify.DEFAULT_SEED),
                                  inject_fault=True)
    assert suite["pass"] is False
    assert suite["checks"]["unitarity"]["pass"] is False
    assert suite["checks"]["unitarity"]["residual"] > 1e-7


def test_sampling_helpers_cover_both_signs():
    rng = np.random.default_rng(0)
    gens = verify.random_generators(rng, 2000)
    discs = [g.beta**2 - g.alpha * g.gamma for g in gens]
    assert any(d > 1.0 for d in discs)
    assert any(d < -1.0 for d in discs)
    near = verify.near_degenerate_generators(rng, 200)
    assert all(abs(g.beta**2 - g.alpha * g.gamma) < 1e-6 for g in near)
