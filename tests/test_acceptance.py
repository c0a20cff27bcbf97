"""Acceptance suite: the binding numerical contracts, one line printed each.

Criteria 1-2 compare against textbook kernels written out inline.
Criteria 3-10 read the checks of ``quadprop verify`` (the session's
``verify_summary`` fixture), which runs each seeded sweep once: every
bound check must pass at a tolerance no looser than the contract's. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import cmath
import math

import numpy as np

from quadprop.propagator import kernel_from_abcd, named_generator
from quadprop.symplectic import abcd_from_generator

QQ_GRID = [(q, Q) for q in np.linspace(-2.0, 2.0, 5) for Q in np.linspace(-2.0, 2.0, 5)]

# (criterion, description, verify check, contract tolerance)
VERIFY_BOUND = [
    (3, "|s|^2 - |r|^2 = 1 over 10^4 generators", "lie_core.unitarity", 1e-10),
    (4, "AD - BC = 1 over the same sample", "symplectic.determinant", 1e-10),
    (4, "flow matrix vs matrix-exponential oracle", "symplectic.matrix_exp_oracle", 1e-10),
    (5, "factor dictionary matches generator route", "symplectic.sr_dictionary", 1e-10),
    (5, "dictionary round trip", "symplectic.dictionary_roundtrip", 1e-12),
    (6, "factor route = matrix route", "propagator.dual_form", 1e-10),
    (6, "coherent route = factor route", "iwop.dual_route", 1e-10),
    (7, "truncated-Fock direct vs ordered product", "lie_core.fock_equivalence", 1e-6),
    (7, "coherent matrix element vs truncated-Fock unitary", "iwop.sandwich_fock", 1e-12),
    (8, "matrix and classical map from W", "propagator.generating_roundtrip", 1e-10),
    (9, "kernel composition up to constant phase", "propagator.kernel_group", 1e-8),
    (10, "grid oracle vs kernel convolution", "oracle.end_to_end", 5e-7),
    (10, "grid norm conservation", "oracle.norm_conservation", 1e-10),
]


def _report(number: int, description: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} "
          f"(residual {residual:.3e}, tolerance {tolerance:.0e})")
    assert residual <= tolerance


def _bind(summary: dict, number: int) -> None:
    """Criterion ``number`` holds when each verify check it binds passes at
    a tolerance no looser than the contract's."""
    for criterion, description, name, tolerance in VERIFY_BOUND:
        if criterion != number:
            continue
        suite, check = name.split(".")
        result = summary["suites"][suite]["checks"][check]
        assert result["tolerance"] <= tolerance, f"{name} loosened to {result['tolerance']:.0e}"
        assert result["pass"], f"{name} failed"
        _report(number, f"{description} [{name}]", result["residual"], tolerance)


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


def test_criterion_03_unitarity_identity(verify_summary):
    _bind(verify_summary, 3)


def test_criterion_04_symplectic_identity(verify_summary):
    _bind(verify_summary, 4)


def test_criterion_05_dictionary_consistency(verify_summary):
    _bind(verify_summary, 5)


def test_criterion_06_dual_route_kernel_equality(verify_summary):
    _bind(verify_summary, 6)


def test_criterion_07_normal_ordering_oracle(verify_summary):
    _bind(verify_summary, 7)


def test_criterion_08_classical_correspondence(verify_summary):
    _bind(verify_summary, 8)


def test_criterion_09_composition_group_property(verify_summary):
    _bind(verify_summary, 9)


def test_criterion_10_end_to_end_physics(verify_summary):
    _bind(verify_summary, 10)
