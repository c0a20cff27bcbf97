"""The evolve CSV formatter renders every finite double exactly as '%.12e'.

The value generators here also feed ``tests/sweep_csvtext.py``, which runs
them at sizes too slow for tier-1.
"""

import math

import numpy as np
import pytest

from quadprop import _csvtext

# leading digits of the boundaries: the powers of ten, their halves, and the
# largest values below them that round up to them or that do not
BOUNDARY_DIGITS = ("1", "5", "9.999999999999", "9.9999999999995", "1.0000000000005")


def _neighbourhoods(bases: np.ndarray, ulps: int) -> np.ndarray:
    """The finite doubles within ``ulps`` steps of each positive base, both signs."""
    bits = bases.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    values = bits.ravel().view(np.float64)
    values = values[np.isfinite(values) & (values > 0.0)]
    return np.concatenate([values, -values])


def boundary_values(ulps: int, digits=BOUNDARY_DIGITS) -> np.ndarray:
    """+-``ulps`` neighbourhoods of d * 10^k for every decimal exponent k of a double."""
    bases = np.array([float(f"{d}e{k}") for k in range(-324, 309) for d in digits])
    return _neighbourhoods(bases[np.isfinite(bases) & (bases > 0.0)], ulps)


def near_ties(rng: np.random.Generator, count: int) -> np.ndarray:
    """Doubles within 2 ulps of (N + 1/2) 10^(e - 12), N a random 13-digit integer.

    Also the exact ties (2N + 1) 5^(e - 12) 2^(e - 13) for e = 12 to 15, the
    only exponents at which a double can be one.
    """
    ns = rng.integers(10**12, 10**13, size=count).tolist()
    es = rng.integers(-323, 309, size=count).tolist()
    bases = [float(f"{n}5e{e - 13}") for n, e in zip(ns, es)]
    bases += [float((2 * n + 1) * 5 ** (e - 12)) * 2.0 ** (e - 13)
              for n in ns[:count // 4] for e in (12, 13, 14, 15)]
    bases = np.array(bases)
    return _neighbourhoods(bases[np.isfinite(bases) & (bases > 0.0)], 2)


def random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """The finite doubles among ``count`` uniformly random 64-bit patterns."""
    values = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def mismatches(values: np.ndarray) -> list:
    """(value, rendered, '%.12e') for each value that the formatter renders otherwise."""
    got = "".join(_csvtext.csv_blocks(values)).splitlines()
    return [(v, g, "%.12e" % v) for v, g in zip(values.tolist(), got) if g != "%.12e" % v]


def test_boundary_neighbourhoods():
    values = boundary_values(16, digits=("1", "9.9999999999995"))
    assert values.size > 80000
    assert mismatches(values) == []


def test_near_ties():
    assert mismatches(near_ties(np.random.default_rng(24), 2000)) == []


def test_random_bit_patterns():
    assert mismatches(random_bits(np.random.default_rng(2024), 100000)) == []


def test_subnormals_zeros_and_large_values():
    rng = np.random.default_rng(7)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.int64).view(np.float64)
    special = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e12, 9.9999999999995e12, 1e13, 1.5e200, 1e300, 1.7976931348623157e308]
    large = 10.0 ** rng.uniform(12, 308, size=2000)
    values = np.concatenate([special, subnormal, large])
    assert mismatches(np.concatenate([values, -values])) == []


def test_exact_ties_fall_back_and_round_half_to_even(record):
    # (N + 1/2) 10^(e - 12) is a double for e = 12 to 15; '%' rounds it half
    # to even, which the vector arithmetic leaves to the fallback
    calls = record(_csvtext, "_exact")
    ties = np.array([1000000000000.5, 1000000000001.5, 99999999999995.0, 2500000000000500.0])
    text = "".join(_csvtext.csv_blocks(np.concatenate([ties, -ties])))
    assert text.splitlines() == ["1.000000000000e+12", "1.000000000002e+12",
                                 "1.000000000000e+14", "2.500000000000e+15",
                                 "-1.000000000000e+12", "-1.000000000002e+12",
                                 "-1.000000000000e+14", "-2.500000000000e+15"]
    assert [args[0] for args, _, _ in calls] == [*ties.tolist(), *(-ties).tolist()]


def test_ordinary_values_take_no_fallback(record):
    # the vector arithmetic settles all but near ties and missed exponents
    calls = record(_csvtext, "_exact")
    rng = np.random.default_rng(5)
    values = np.concatenate([[0.0, -0.0, 5e-324], rng.normal(size=5000),
                             10.0 ** rng.uniform(-320, 300, size=5000)])
    assert mismatches(values) == []
    assert calls == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_refused_before_any_text(bad):
    chunks = _csvtext.csv_blocks(np.ones(2000), np.array([1.0] * 1999 + [bad]))
    with pytest.raises(ValueError, match="non-finite"):
        next(chunks)
