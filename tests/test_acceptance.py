"""Acceptance suite: the binding numerical contracts, one line printed each.

Criteria 1-2 compare against textbook kernels written out inline.
Criteria 3-10 read the checks of ``quadprop verify`` (the session's
``verify_summary`` fixture), which runs each seeded sweep once: every
check in ``VERIFY_CHECKS`` must pass at a tolerance no looser than its
cap there. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion report.
"""

import cmath
import math

import numpy as np
import pytest

from quadprop.propagator import kernel_from_abcd, named_generator
from quadprop.symplectic import abcd_from_generator

QQ_GRID = [(q, Q) for q in np.linspace(-2.0, 2.0, 5) for Q in np.linspace(-2.0, 2.0, 5)]

# Every check that `quadprop verify` prints, in its order, as
# suite.check: (criterion, description, contract cap on its tolerance).
VERIFY_CHECKS = {
    "lie_core.unitarity": (3, "|s|^2 - |r|^2 = 1 over 10^4 + 300 generators", 1e-10),
    "lie_core.seam_continuity": (3, "(s, r) continuous through delta_sq = 0", 1e-7),
    "lie_core.fock_equivalence": (7, "truncated-Fock direct vs ordered product", 1e-6),
    "symplectic.determinant": (4, "AD - BC = 1 over its own 10^4 + 300 generators", 1e-10),
    "symplectic.matrix_exp_oracle": (4, "flow matrix vs matrix-exponential oracle", 1e-10),
    "symplectic.sr_dictionary": (5, "factor dictionary matches generator route", 1e-10),
    "symplectic.dictionary_roundtrip": (5, "dictionary round trip", 1e-12),
    "symplectic.composition_chain": (4, "AD - BC = 1 along 1000 composed steps", 1e-9),
    "propagator.dual_form": (6, "factor route = matrix route", 1e-10),
    "propagator.generating_roundtrip": (8, "matrix and classical map from W", 1e-10),
    "propagator.kernel_group": (9, "kernel composition up to sign", 1e-8),
    "propagator.convolve_unitarity": (10, "kernel convolution conserves packet norm", 1e-10),
    "iwop.completeness": (6, "coherent-state completeness, d^2z/pi measure", 1e-4),
    "iwop.dual_route": (6, "coherent route = factor route", 1e-10),
    "iwop.sandwich_fock": (7, "coherent matrix element vs truncated-Fock unitary", 1e-12),
    "oracle.fock_commutator": (7, "[a, a^dag] = 1 on the truncated Fock space", 1e-12),
    "oracle.norm_conservation": (10, "grid norm conservation", 1e-10),
    "oracle.end_to_end": (10, "grid oracle vs kernel convolution", 5e-7),
}


def _report(number: int, description: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} "
          f"(residual {residual:.3e}, tolerance {tolerance:.0e})")
    assert residual <= tolerance


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


@pytest.mark.parametrize("name", VERIFY_CHECKS)
def test_verify_check_within_its_cap(verify_summary, name):
    number, description, cap = VERIFY_CHECKS[name]
    suite, check = name.split(".")
    checks = verify_summary["suites"][suite]["checks"]
    assert check in checks, f"verify has no check {name}"
    result = checks[check]
    assert result["tolerance"] <= cap, f"{name} loosened to {result['tolerance']:.0e}"
    assert result["pass"], f"{name} failed"
    _report(number, f"{description} [{name}]", result["residual"], cap)
