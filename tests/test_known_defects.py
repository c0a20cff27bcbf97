"""The known defects, one entry each: an entry asserts the right outcome and is
marked as an expected failure with the ROADMAP item that fixes it.

pyproject.toml makes every xfail strict, so a fix turns its entry into a tier-1
failure (XPASS) until the fixing change removes the mark in the open; the entry
then stays as that fix's regression test. Only the fixing change removes an
entry. An entry expects only its assertion to fail (``raises=AssertionError``),
so a crash does not pass for the defect.

Known defects with no entry here:
- `kernel_via_iwop` near caustics: the rounding of its 4x4 form, amplified by
  cond(M), puts the coherent-state route 1e-10 to 1.8e-8 off the kernel on 10
  generators per pass of perfbench's `closed_form` seed 1, which counts them in
  `failed`. The kernel that `kernel` prints is right there, and `check_diff`
  reports the miss as it is.
- `coherent_iwop.overlap_position` returns NaN where the phase overflows
  although the modulus is finite (labels near 1e155). No caller passes such
  labels.
- The `closed_form` large-delta slice (617 generators per pass of seed 1) is
  refused by the absolute invariant guards and by overflow; the decompose
  entries below sample both (items 2 and 3), and perfbench counts the rest.
"""

import json

import mpmath
import pytest

from quadprop import cli


def _defect(items):
    """Mark an entry as failing its assertion until these ROADMAP items land."""
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP {items}")


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _oscillator_l2_diff(tmp_path, capsys, t):
    """evolve of the harmonic schedule `t 0 t` at the CLI defaults: exit code, l2_diff."""
    path = tmp_path / "oscillator.sched"
    path.write_text(f"{t} 0 {t}\n")
    code, out = _run(capsys, ["evolve", str(path)])
    return code, float(out.splitlines()[-1].split(",")[1])


@pytest.mark.parametrize("t", [4, 5.5, 7, 8])
@_defect("item 1")
def test_caustic_crossings_keep_the_metaplectic_sign(tmp_path, capsys, t):
    # the closed form drops the sign the kernel gains at each caustic crossed,
    # so the two routes differ by a factor -1 and l2_diff reads 2.0
    code, l2_diff = _oscillator_l2_diff(tmp_path, capsys, t)
    assert code == 0 and l2_diff <= 1e-6


@pytest.mark.parametrize("t", [11, 13])
def test_caustic_crossings_that_agree_today(tmp_path, capsys, t):
    # right only by accident (2.28e-7 and 2.84e-7): a sign fix built on the
    # parity of the caustics crossed breaks them
    code, l2_diff = _oscillator_l2_diff(tmp_path, capsys, t)
    assert code == 0 and l2_diff <= 1e-6


@pytest.mark.parametrize("generator", [
    # D = gc - beta gs cancels to 0.0 (true 9.4e-14) and the unitarity guard fires
    pytest.param("0 30 0", marks=_defect("item 2")),
    # every number is right to rounding, but the absolute guard reads 2.98e-8
    pytest.param("0.5 10 -0.25", marks=_defect("item 3")),
    # A = gc + beta gs cancels at beta < 0: off by 9.41e-12
    pytest.param("0.00121 -10.89 0.00273", marks=_defect("item 2")),
])
def test_decompose_matches_the_50_digit_reference(capsys, generator):
    # the reference is the exponential of the flow matrix [[beta, alpha],
    # [-gamma, -beta]] and the dictionary s = (D+A)/2 + i(B-C)/2,
    # r = (D-A)/2 - i(B+C)/2, in 50-digit mpmath
    code, out = _run(capsys, ["decompose", *generator.split(), "--json"])
    assert code == 0
    report = json.loads(out)
    alpha, beta, gamma = map(float, generator.split())
    with mpmath.workdps(50):
        m = mpmath.expm(mpmath.matrix([[beta, alpha], [-gamma, -beta]]))
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        ref = {"a": a, "b": b, "c": c, "d": d,
               "s": mpmath.mpc((d + a) / 2, (b - c) / 2),
               "r": mpmath.mpc((d - a) / 2, -(b + c) / 2)}
        got = {**report["abcd"], **{k: complex(report[k]["re"], report[k]["im"]) for k in "sr"}}
        errors = {k: float(abs(got[k] - ref[k]) / abs(ref[k])) if ref[k] else abs(got[k])
                  for k in ref}
    assert max(errors.values()) <= 1e-12, errors


def _check_diff_is_within_its_kernel(out):
    report = json.loads(out)
    return report["check_diff"] <= 1e-8 * abs(complex(report["re"], report["im"]))


@_defect("items 15, 21 and 22")
def test_kernel_far_out_keeps_its_digits_or_fails(capsys):
    # at |q| = |Q| = 1e8 the phase W has no correct digit left: check_diff
    # reads 0.48 against |K| = 0.50, and the command exits 0
    code, out = _run(capsys, ["kernel", "0.7", "0.13", "0.9", "1e8", "1e8", "--check", "--json"])
    assert code != 0 or _check_diff_is_within_its_kernel(out)


@_defect("item 2")
def test_kernel_check_answers_next_to_a_focal_point(capsys):
    # at B = 1e-9 the real part of kernel_via_iwop's form is not positive
    # definite to rounding, so the check exits 5 though `kernel` answers
    code, out = _run(capsys, ["kernel", "1e-9", "0", "0", "0", "0", "--check", "--json"])
    assert code == 0 and _check_diff_is_within_its_kernel(out)
