"""CLI tests: output contracts, exit codes, and determinism."""

import importlib.util
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadprop
from quadprop import _csvtext, cli, oracle
from quadprop.errors import MAX_GRID_STEPS

# The exact reports of `decompose -1.5 0.25 0.75`, of `kernel -1.5 0.25 0.75 0.3 -0.7
# --check` and of compose on COMPOSE_SCHEDULE.
DECOMPOSE_TEXT = """\
tau                 = 2.500000000000e-01 -1.125000000000e+00
sigma               = 7.500000000000e-01
delta_sq            = 1.187500000000e+00
s                   = 1.654882264547e+00 -4.537521608709e-01
r                   = -3.025014405806e-01 1.361256482613e+00
A                   = 1.957383705128e+00
B                   = -1.815008643484e+00
C                   = -9.075043217418e-01
D                   = 1.352380823967e+00
residual_unitarity  = -4.440892098501e-16
residual_symplectic = -2.220446049250e-16
"""
DECOMPOSE_JSON = {
    "abcd": {"a": 1.9573837051280067, "b": -1.8150086434836512,
             "c": -0.9075043217418256, "d": 1.3523808239667898},
    "delta_sq": 1.1875, "sigma": 0.75, "tau": {"re": 0.25, "im": -1.125},
    "s": {"re": 1.6548822645473984, "im": -0.4537521608709128},
    "r": {"re": -0.3025014405806085, "im": 1.3612564826127385},
    "residual_symplectic": -2.220446049250313e-16,
    "residual_unitarity": -4.440892098500626e-16,
}
KERNEL_TEXT = """\
2.680914099838e-01 1.257587061770e-01
check_diff = 6.206335383118e-17
"""
KERNEL_JSON = {"check_diff": 6.206335383118183e-17, "im": 0.12575870617700652,
               "re": 0.2680914099838406}
COMPOSE_SCHEDULE = "0.5 0.1 0.3\n-0.2 0.4 1.1\n"
COMPOSE_TEXT = """\
steps               = 2
A                   = 1.730523039627e+00
B                   = 6.147846314056e-01
C                   = -1.430099037918e+00
D                   = 6.980380343634e-02
s                   = 9.001634215316e-01 1.022441834662e+00
r                   = -8.303596180952e-01 4.076572032561e-01
residual_symplectic = 2.220446049250e-16
"""
COMPOSE_JSON = {
    "abcd": {"a": 1.7305230396267972, "b": 0.6147846314056006,
             "c": -1.4300990379178429, "d": 0.06980380343634496},
    "s": {"re": 0.900163421531571, "im": 1.0224418346617217},
    "r": {"re": -0.8303596180952262, "im": 0.40765720325612115},
    "residual_symplectic": 2.220446049250313e-16, "steps": 2,
}
# argv, schedule body (None: no file), text report, JSON report
PINNED = {
    "decompose": ("decompose -1.5 0.25 0.75", None, DECOMPOSE_TEXT, DECOMPOSE_JSON),
    "kernel": ("kernel -1.5 0.25 0.75 0.3 -0.7 --check", None, KERNEL_TEXT, KERNEL_JSON),
    "compose": ("compose {schedule}", COMPOSE_SCHEDULE, COMPOSE_TEXT, COMPOSE_JSON),
}
# the two-entry reference schedule of the evolve accuracy tests
_REFERENCE = "1.0 0.05 0.9\n0.8 -0.03 1.1\n"


def _evolve(options="", body="1.0 0.0 0.0\n"):
    """argv and schedule body of an evolve with these options."""
    return f"evolve {{schedule}} {options}", body


_BOUNDS = "error: x_min and x_max must be finite with x_max > x_min, got"
_SPACING = "must be finite with a finite 1/spacing^2"
_COUNT = f"error: n_points must be <= sys.maxsize = {sys.maxsize}, got"
_PACKET = ("error: cannot sample GaussianWavepacket(center_q={}, center_p=1.0, width={}, "
           "phase=0.0): {}")
_FOCAL = "focal point: B=0, kernel degenerates to a delta function"
_DET = "error: matrix is not symplectic: det-1 = "
_NAN_OUT = "error: non-finite output: "
_INFINITE = f"{_NAN_OUT}s, r, A, residual_unitarity, residual_symplectic"
_BANDS = "error: Hamiltonian bands must not contain infs or NaNs"
# Every failure exit of decompose, kernel, evolve and compose: argv, schedule
# body (None: no file is written), exit code, and the one line written to
# stderr while stdout stays empty.
# "{schedule}" in argv and in the line is the path of the body's file. A line
# ending in "..." is matched as a prefix: the rest is Python's or numpy's text.
# The table is built from the parts that each exit-code test below reads.
_NON_FINITE_POINT = {
    "q-inf": ("kernel 1 0 0 inf 1", None, 2, "error: kernel coordinate q must be finite, got inf"),
    "Q-nan": ("kernel 1 0 0 0 nan", None, 2, "error: kernel coordinate Q must be finite, got nan"),
}
_BAD_GRID_OPTION = {
    "zero-steps": (*_evolve("--steps 0"), 2, "error: --steps must be >= 1, got 0"),
    "negative-steps": (*_evolve("--steps -5"), 2, "error: --steps must be >= 1, got -5"),
    "zero-width": (*_evolve("--width 0"), 2, "error: width must be positive and finite, got 0.0"),
    "non-finite-center": (*_evolve("--center-q nan"), 2, "error: center_q must be finite"),
    "point-count": (*_evolve("--n-points 1000"), 2,
                    "error: n_points must be a power of two >= 512, got 1000"),
    # checked before the samples are allocated
    "negative-point-count": (*_evolve("--n-points=-5"), 2,
                             "error: n_points must be a power of two >= 512, got -5"),
    "reversed-interval": (*_evolve("--x-min 5 --x-max -5"), 2, f"{_BOUNDS} 5.0 and -5.0"),
    "reversed-interval-before-allocation": (*_evolve(f"--n-points {2**50} --x-min 5 --x-max -5"),
                                            2, f"{_BOUNDS} 5.0 and -5.0"),
    "infinite-interval": (*_evolve("--x-min=-inf"), 2, f"{_BOUNDS} -inf and 40.0"),
    "width-squared-underflows": (*_evolve("--width 1e-170"), 2,
                                 _PACKET.format("0.0", "1e-170", "...")),
    "center-squared-overflows": (*_evolve("--center-q 1e200"), 2,
                                 _PACKET.format("1e+200", "1.0", "...")),
    "width-squared-subnormal": (*_evolve("--width 1e-160"), 2,
                                _PACKET.format("0.0", "1e-160", "its exponent is not finite")),
    "center-over-width-squared-overflows": (
        *_evolve("--width 1e-80 --center-q 1e150"), 2,
        _PACKET.format("1e+150", "1e-80", "its exponent is not finite")),
    # e^{-39^2/2} underflows the packet's amplitude to 0
    "amplitude-underflows": (*_evolve("--center-q 39 --x-min 0 --x-max 80"), 2,
                             _PACKET.format("39.0", "1.0", "its amplitude underflows")),
    # e^{-37.69^2/2} is subnormal, and e^{+37.69^2/2} at the center overflows
    "narrow-amplitude-factor-subnormal": (
        *_evolve("--width 1e-100 --center-q 3.769e-99 --x-min 0 --x-max 8e-99"), 2,
        _PACKET.format("3.769e-99", "1e-100", "its amplitude underflows")),
    "spacing-squared-underflows": (
        *_evolve("--n-points 512 --x-min=-1e-300 --x-max 1e-300"), 2,
        f"error: grid spacing 3.913894324853229e-303 {_SPACING}"),
    "interval-width-overflows": (*_evolve("--x-min=-1e308 --x-max 1e308"), 2,
                                 f"error: grid spacing inf {_SPACING}"),
    # 2^50 points exceed the address space: the allocation fails at once
    "grid-exceeds-memory": (*_evolve(f"--n-points {2**50}"), 2, "error: Unable to allocate ..."),
    # no array has more than sys.maxsize = 2^63 - 1 entries
    "point-count-past-the-index-range": (*_evolve(f"--n-points {2**63}"), 2, f"{_COUNT} {2**63}"),
    "point-count-past-int64": (*_evolve(f"--n-points {2**64}"), 2, f"{_COUNT} {2**64}"),
    "point-count-past-the-float-range": (*_evolve(f"--n-points {2**1400}"), 2,
                                         f"{_COUNT} {2**1400}"),
}
# NotADirectoryError: an OSError that is neither FileNotFoundError nor
# IsADirectoryError is still a bad argument
_PATH_UNDER_A_FILE = {
    "output-under-a-file": ("decompose 1 0 1 -o {schedule}/out.json", "", 2,
                            "error: [Errno 20] Not a directory: '{schedule}/out.json'"),
    "schedule-under-a-file": ("compose {schedule}/x", "", 2,
                              "error: [Errno 20] Not a directory: '{schedule}/x'"),
}
# 5: lost digits, at an invariant guard, a non-finite value or an overflow
_PRECISION_LOSS = {
    "kernel-not-symplectic": ("kernel 0 20 0 0 1", None, 5, f"{_DET}2.532e-03"),
    "compose-drift": ("compose {schedule}", "0 20 0\n", 5, f"{_DET}2.532e-03 (schedule step 1)"),
    "decompose-json-infinity": ("decompose 0 1000 0 --json", None, 5, _INFINITE),
    "decompose-text-infinity": ("decompose 0 1000 0", None, 5, _INFINITE),
    # |s| = cosh(400) is finite, but |s|^2 overflows: residual_unitarity is NaN
    "decompose-json-square-overflow": ("decompose 0 400 0 --json", None, 5,
                                       f"{_NAN_OUT}residual_unitarity"),
    "decompose-text-square-overflow": ("decompose 0 400 0", None, 5,
                                       f"{_NAN_OUT}residual_unitarity"),
    "kernel-text-nan": ("kernel 1 0 0 1e200 1 --check", None, 5, f"{_NAN_OUT}kernel, check_diff"),
    "kernel-json-nan": ("kernel 1 0 0 1e200 1 --check --json", None, 5,
                        f"{_NAN_OUT}kernel, check_diff"),
    # overflow: A = inf and B = 0 give det-1 = NaN, not a focal point
    "kernel-nan-residual": ("kernel 0 1000 0 0 1", None, 5, f"{_DET}nan"),
    "kernel-json-nan-residual": ("kernel 0 1000 0 0 1 --json", None, 5, f"{_DET}nan"),
    "compose-nan-residual": ("compose {schedule}", "0 1000 0\n", 5, f"{_DET}nan (schedule step 1)"),
    # the packet's momentum overflows in the closed-form convolution
    "evolve-convolve-overflow": (*_evolve("--center-p 1e300 --steps 1"), 5,
                                 "error: complex exponentiation"),
    # finite output, but D = 0 and both residuals read -1
    "decompose-not-unitary": ("decompose 0 30 0", None, 5,
                              "error: factors are not unitary: |s|^2-|r|^2-1 = -1.000e+00"),
    # gamma x^2 overflows in the grid Hamiltonian's diagonal
    "evolve-band-overflow": (*_evolve("--x-min=-1e300 --x-max 1e300 --steps 1", "1.0 0.0 1.0\n"),
                             5, _BANDS),
    # and the beta term reaches NaN in its superdiagonal
    "evolve-band-nan": (*_evolve("--x-min=0 --x-max 1.7e308 --steps 1", "1.0 1.0 1.0\n"), 5,
                        _BANDS),
    # the grid's pivoted band LU gets through finite bands of about 1e303,
    # but cosh and sinh overflow in compose_schedule: det-1 = NaN
    "evolve-compose-overflow-beta-1e300": (*_evolve("--steps 1", "1.0 1e300 0\n"), 5,
                                           f"{_DET}nan (schedule step 1)"),
    # likewise with bands of about 1e103: delta_sq = 1e200 is finite, cosh(1e100) is not
    "evolve-compose-overflow-beta-1e100": (*_evolve("--steps 1", "1.0 1e100 0\n"), 5,
                                           f"{_DET}nan (schedule step 1)"),
    # cosh and sinh overflow in gc/gs: one error line, no numpy warnings
    "decompose-gc-gs-overflow": (
        "decompose -- -1e300 0 1e300", None, 5,
        f"{_NAN_OUT}delta_sq, s, r, A, B, C, D, residual_unitarity, residual_symplectic"),
    "kernel-gc-gs-overflow": ("kernel -- -1e300 0 1e300 0 0", None, 5, f"{_DET}nan"),
    "compose-gc-gs-overflow": ("compose {schedule}", "-1e300 0 1e300\n", 5,
                               f"{_DET}nan (schedule step 1)"),
    # sampling the packet gives -inf + inf, and no grid step checks the amplitudes;
    # center_q/width = 10 keeps its amplitude normal (at 37.6 and above it underflows,
    # and the packet cannot be sampled: exit 2)
    "evolve-empty-schedule-nan": (
        *_evolve("--center-q 1e-7 --width 1e-8 --x-min=-1e300 --x-max 1e300 --n-points 512", ""),
        5, f"{_NAN_OUT}l2_diff"),
}
EXIT_PATHS = {
    **_NON_FINITE_POINT, **_BAD_GRID_OPTION, **_PATH_UNDER_A_FILE, **_PRECISION_LOSS,
    # the rows read by one test each, named after the row
    "non-finite-generator": ("kernel nan 0 0 0 0", None, 2,
                             "error: generator coefficient alpha must be finite, got nan"),
    # refused as too much work, not as a precision loss of its conversion to a float
    "steps-beyond-the-float-range": (
        *_evolve(f"--steps {10**400}", _REFERENCE), 2,
        f"error: the schedule plans more than {MAX_GRID_STEPS} Pade steps at {10**400} steps "
        "per unit of generator norm"),
    "missing-schedule": (*_evolve(body=None), 2,
                         "error: [Errno 2] No such file or directory: '{schedule}'"),
    "bad-schedule": (*_evolve(body="1.0 2.0\n"), 2,
                     "error: {schedule}:1: expected 'alpha beta gamma', got '1.0 2.0'"),
    "non-utf8-schedule": (
        "compose {schedule}", b"1.0 0.0 0.0  # \xe9tape\n", 2,
        "error: {schedule}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 15: "
        "invalid continuation byte"),
    # 3: a focal point, where the kernel is a delta function
    "focal-point": ("kernel 0 0.6931 0 0 0", None, 3, _FOCAL),
    "caustic-schedule": (*_evolve(body=f"{math.pi!r} 0 {math.pi!r}\n"), 3, _FOCAL),
    # 4: the packet reaches the grid's edges
    "boundary-leak": (*_evolve("--center-p 3.0 --x-min -5 --x-max 5 --n-points 512"), 4,
                      "boundary leak: edge amplitude ..."),
    # abcd_from_generator(0, 20, 0) already has det-1 = 2.5e-3 (hyperbolic
    # cancellation at delta_sq = 400) before any product is taken
    "compose-names-the-step-that-lost-digits": ("compose {schedule}", "0 1 1\n0 20 0\n1 0 1\n", 5,
                                                f"{_DET}2.532e-03 (schedule step 2)"),
}


def _schedule(tmp_path, body) -> str:
    """Write a step-schedule file, text or bytes, in the test's directory; return its path."""
    path = tmp_path / "step.sched"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    return str(path)


def _fill(tmp_path, body, *texts):
    """Write the schedule body, unless it is None, and put its path for
    "{schedule}" in each text."""
    path = _schedule(tmp_path, body) if body is not None else str(tmp_path / "step.sched")
    return [text.replace("{schedule}", path) for text in texts]


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def pinned(tmp_path, capsys):
    """Check that the text and --json output of a PINNED case are exactly
    its bytes, run after run."""
    def check(case):
        argv, body, text, payload = PINNED[case]
        argv = _fill(tmp_path, body, argv)[0].split()
        as_json = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        for extra, expected in (([], text), (["--json"], as_json)):
            for _ in range(2):
                assert _run(capsys, argv + extra) == (0, expected, "")
    return check


@pytest.fixture
def exit_path(tmp_path, capsys):
    """Check an EXIT_PATHS row: its exit code, an empty stdout and exactly
    its one stderr line."""
    def check(case):
        argv, body, code, line = EXIT_PATHS[case]
        argv, line = _fill(tmp_path, body, argv, line)
        got, out, err = _run(capsys, argv.split())
        assert (got, out) == (code, "")
        prefix = line[:-3] if line.endswith("...") else line + "\n"
        assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
    return check


def _evolve_csv(tmp_path, body, *options):
    """The lines of the CSV that evolve writes for this schedule body and options."""
    out_path = tmp_path / "out.csv"
    assert cli.main(["evolve", _schedule(tmp_path, body), *options, "-o", str(out_path)]) == 0
    return out_path.read_text().splitlines()


class TestDecompose:
    def test_zero_generator_residuals(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "0", "0", "0", "--json"])
        report = json.loads(out)
        assert (code, report["residual_unitarity"], report["residual_symplectic"]) == (0, 0.0, 0.0)

    def test_byte_identical_reruns(self, pinned):
        pinned("decompose")


class TestKernel:
    def test_focal_point_exit_code(self, exit_path):
        exit_path("focal-point")

    @pytest.mark.parametrize("case", _NON_FINITE_POINT)
    def test_non_finite_point_exit_code(self, exit_path, case):
        exit_path(case)

    def test_non_finite_generator_exit_code(self, exit_path):
        exit_path("non-finite-generator")

    def test_byte_identical_reruns(self, pinned):
        pinned("kernel")


class TestEvolve:
    def test_free_schedule_csv(self, tmp_path):
        lines = _evolve_csv(tmp_path, "1.0 0.0 0.0\n")
        assert lines[0] == "x,re_kernel_route,im_kernel_route,re_grid_route,im_grid_route,abs_diff"
        assert len(lines) == 1 + 4096 + 1
        footer = lines[-1].split(",")
        assert footer[0] == "l2_diff"
        assert float(footer[1]) < 1e-3

    def test_empty_schedule_echoes_input(self, tmp_path, capsys):
        sched = _schedule(tmp_path, "# nothing\n\n")
        code, out, _ = _run(capsys, ["evolve", sched])
        assert code == 0
        lines = out.strip().splitlines()
        diffs = [float(row.split(",")[5]) for row in lines[1:-1]]
        assert max(diffs) < 1e-12
        assert float(lines[-1].split(",")[1]) < 1e-12

    def test_caustic_schedule_exit_code(self, exit_path):
        exit_path("caustic-schedule")

    def test_boundary_leak_exit_code(self, exit_path):
        exit_path("boundary-leak")

    def test_bad_schedule_exit_code(self, exit_path):
        exit_path("bad-schedule")

    def test_missing_schedule_exit_code(self, exit_path):
        exit_path("missing-schedule")

    @pytest.mark.parametrize("case", _BAD_GRID_OPTION)
    def test_bad_grid_option_exit_code(self, exit_path, case):
        exit_path(case)

    def test_csv_rows_match_per_cell_format(self):
        # more rows than one formatting block, and not a multiple of it
        values = np.tile([0.0, -0.0, 1.0, -2.5e12, math.pi, 1e-300, 5e-324, 1e300,
                          123456789.123456789, -7.25e-8], 110) * np.linspace(1.0, 2.0, 1100)
        z = values + 1j * values[::-1]
        columns = (values, z.real, z.imag, values[::-1], -values, abs(z))
        per_cell = [",".join(cli._fmt(c[i]) for c in columns) + "\n" for i in range(values.size)]
        blocks = list(_csvtext.csv_blocks(*columns))
        assert len(blocks) == 3
        assert "".join(blocks) == "".join(per_cell)

    def test_csv_equals_plain_format_of_its_arrays(self, tmp_path, record):
        calls = record(_csvtext, "csv_blocks")
        rows = _evolve_csv(tmp_path, _REFERENCE, "--n-points", "1024", "--steps", "4")[1:-1]
        [(columns, _, _)] = calls
        assert len(columns) == 6 and len(rows) == 1024
        assert rows == ["%.12e,%.12e,%.12e,%.12e,%.12e,%.12e" % cells
                        for cells in zip(*(c.tolist() for c in columns))]

    def test_focal_schedule_fails_before_grid_work(self, tmp_path, capsys, monkeypatch):
        # two quarter periods of the oscillator reach its focal point; the
        # closed-form route raises before grid_evolve runs
        calls = []
        monkeypatch.setattr(oracle, "grid_evolve", lambda *args, **kw: calls.append(args))
        q = "1.5707963267948966"
        sched = _schedule(tmp_path, f"{q} 0 {q}\n{q} 0 {q}\n")
        code, out, err = _run(capsys, ["evolve", sched])
        assert (code, out, calls) == (cli.EXIT_FOCAL_POINT, "", [])
        assert "focal point" in err

    def test_byte_identical_reruns(self, tmp_path):
        sched = _schedule(tmp_path, "0.5 0.0 0.0\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["evolve", sched, "--steps", "40", "-o", str(a)]) == 0
        assert cli.main(["evolve", sched, "--steps", "40", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_route_tracks_kernel_route(self, tmp_path):
        # harmonic drive split into two quarter-period entries
        q = repr(math.pi / 4)
        footer = _evolve_csv(tmp_path, f"{q} 0 {q}\n{q} 0 {q}\n", "--center-q", "1.0",
                             "--center-p", "0.0")[-1]
        assert float(footer.split(",")[1]) < 5e-3

    def test_default_steps_reach_2e_8_on_the_reference_schedule(self, tmp_path):
        # the default 4 eighth-order steps per unit of generator norm (6 per
        # entry) on the 4096-point grid read 1.28e-8, the grid's spatial error
        footer = _evolve_csv(tmp_path, _REFERENCE, "--center-q", "0.3", "--center-p", "0.2")[-1]
        assert float(footer.split(",")[1]) <= 2e-8

    def test_planned_work_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        # a 1-rad rotation that the closed form handles, but its norm of 1e4
        # plans 4e4 grid steps at the default 4 per unit: refused before any
        # grid work, as a request too large to run
        bands = []
        monkeypatch.setattr(oracle, "_hamiltonian_bands", lambda *args: bands.append(args))
        sched = _schedule(tmp_path, "1e-4 0 1e4\n")
        code, out, err = _run(capsys, ["evolve", sched])
        assert (code, out, bands) == (cli.EXIT_PARSE, "", [])
        assert err == (f"error: the schedule plans more than {MAX_GRID_STEPS} Pade steps "
                       "at 4 steps per unit of generator norm\n")

    def test_steps_beyond_the_float_range_exit_code(self, exit_path):
        exit_path("steps-beyond-the-float-range")


class TestCompose:
    def test_byte_identical_reruns(self, pinned):
        pinned("compose")

    def test_empty_schedule_is_identity(self, tmp_path, capsys):
        code, out, _ = _run(capsys, ["compose", _schedule(tmp_path, ""), "--json"])
        assert (code, json.loads(out)["abcd"]) == (0, {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0})

    def test_non_utf8_schedule_exit_code(self, exit_path):
        exit_path("non-utf8-schedule")


class TestVerifyCommand:
    def test_exit_zero_when_suites_pass(self, tmp_path, monkeypatch):
        fake = {"pass": True, "suites": {"lie_core": {"pass": True}}}
        monkeypatch.setattr("quadprop.verify.run_all", lambda: fake)
        out_path = tmp_path / "summary.json"
        assert cli.main(["verify", "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["pass"] is True


@pytest.mark.parametrize("case", _PRECISION_LOSS)
def test_precision_loss_exit_code(exit_path, case):
    exit_path(case)


# JSON mode names the non-finite fields as text mode does, not in the JSON
# encoder's words
@pytest.mark.parametrize("case", [
    pytest.param("kernel-json-nan", id="kernel"),
    pytest.param("decompose-json-infinity", id="decompose"),
    pytest.param("decompose-json-square-overflow", id="decompose-square-overflow"),
])
def test_json_mode_names_the_non_finite_fields(exit_path, case):
    exit_path(case)


@pytest.mark.parametrize("case", _PATH_UNDER_A_FILE)
def test_path_under_a_file_exit_code(exit_path, case):
    exit_path(case)


def test_compose_names_the_step_that_lost_digits(exit_path):
    exit_path("compose-names-the-step-that-lost-digits")


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's quadprop."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _run_fresh(script) -> str:
    """Run ``script`` in a fresh interpreter, which compiles every module it
    imports (no bytecode is written here); return its stdout."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_fresh_env(PYTHONDONTWRITEBYTECODE="1"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _heavy(modules: str) -> set:
    """Of the printed module names, the oracles, the CSV formatter, the verify
    suites, scipy's top-level package and every module of scipy.linalg."""
    loaded = {m if m.startswith(("quadprop", "scipy.linalg")) else m.split(".")[0]
              for m in modules.split()}
    watched = {"quadprop.oracle", "quadprop._csvtext", "quadprop.verify", "scipy"}
    return {m for m in loaded if m in watched or m.startswith("scipy.linalg")}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """Return the stdout of a fresh interpreter for one of the import states
    below, starting one process per state however many tests read it."""
    schedule = _schedule(tmp_path_factory.mktemp("fresh"), "0.5 0 0.5\n")
    closed_form = [["decompose", "1", "0", "1"],
                   ["kernel", "1", "0", "1", "0.3", "0.2", "--check"],
                   ["compose", schedule]]
    evolve = ["evolve", schedule, "--n-points", "512", "--steps", "2", "-o", os.devnull]
    scripts = {
        # The parser cache before the first main(), (misses, hits) after the
        # three commands, then every module loaded.
        "closed-form": (
            "import os, sys, quadprop.cli as cli\n"
            "print(cli.build_parser.cache_info().currsize)\n"
            f"for argv in {closed_form!r}:\n"
            "    assert cli.main([*argv, '-o', os.devnull]) == 0\n"
            "info = cli.build_parser.cache_info()\n"
            "print(info.misses, info.hits)\n"
            "print(*sys.modules)\n"
        ),
    }
    # The modules loaded right after evolve, then the f2py wrapper objects
    # and a scipy.linalg solve checked in the same process.
    for first in ("evolve", "scipy.linalg"):
        scripts[first] = (
            "import sys\n"
            + ("import scipy.linalg\n" if first == "scipy.linalg" else "")
            + "import quadprop.cli\n"
            f"assert quadprop.cli.main({evolve!r}) == 0\n"
            "print(*sys.modules)\n"
            "import numpy as np\n"
            "import scipy.linalg\n"
            "from scipy.linalg import blas, lapack\n"
            "from quadprop import oracle\n"
            "assert lapack.zgbtrf is oracle.zgbtrf\n"
            "assert lapack.zgbtrs is oracle.zgbtrs\n"
            "assert blas.ztbsv is oracle.ztbsv\n"
            "bands = np.array([[0, 1, 2j], [4, 5 + 1j, 6], [7, 8j, 0]])\n"
            "dense = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)\n"
            "x = scipy.linalg.solve_banded((1, 1), bands, np.ones(3))\n"
            "assert np.allclose(dense @ x, np.ones(3), rtol=0, atol=1e-14)\n"
        )
    runs = {}

    def run(state):
        if state not in runs:
            runs[state] = _run_fresh(scripts[state])
        return runs[state]
    return run


@pytest.mark.parametrize("state, heavy", [
    ("closed-form", set()),
    ("closed-form", set()),
    ("closed-form", set()),
    ("closed-form", set()),
    ("evolve", {"quadprop.oracle", "quadprop._csvtext", "scipy", "scipy.linalg._fblas",
                "scipy.linalg._flapack"}),
], ids=["import", "decompose", "kernel-check", "compose", "evolve"])
def test_commands_load_only_the_modules_they_run(fresh_run, state, heavy):
    # Every process compiles what it imports, so the oracles, the CSV
    # formatter, the verify suites and scipy load only where they run.
    # sys.modules only grows, so the set after decompose, kernel --check and
    # compose, run in one process, covers each of them and `import quadprop`.
    # The grid oracle loads scipy.linalg's two compiled wrapper modules and no
    # other module of scipy.linalg, the package included.
    assert _heavy(fresh_run(state).splitlines()[-1]) == heavy


def test_parser_is_built_once_on_first_call(fresh_run):
    # importing the CLI builds no parser; the first main() builds it and
    # later calls, of any command, reuse it
    before, after, _ = fresh_run("closed-form").splitlines()
    assert before == "0"
    assert after == "1 2"


@pytest.mark.parametrize("first", ["evolve", "scipy.linalg"])
def test_evolve_shares_its_wrappers_with_scipy_linalg(fresh_run, first):
    # In either import order the grid oracle and scipy.linalg hold the same
    # f2py wrapper objects, and scipy.linalg still solves after evolve ran;
    # the script asserts both and exits 0.
    fresh_run(first)


def test_overflow_writes_one_error_line_and_no_warning():
    # In a fresh process with warnings shown, an overflowing exponent must
    # reach the user as the one error line, not as numpy RuntimeWarnings.
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "quadprop.cli",
         "kernel", "1", "0", "0", "1e200", "1", "--check"],
        capture_output=True, text=True, env=_fresh_env(), timeout=60,
    )
    assert proc.returncode == cli.EXIT_PRECISION
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite output: kernel, check_diff\n"


def test_dispatch_and_traced_names_resolve():
    # perfbench/tracer.py patches these names by string; a rename must fail here.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, attr in tracer.TRACED:
        obj = importlib.import_module(f"quadprop.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr)
    for command, fn in cli._DISPATCH.items():
        assert inspect.isfunction(fn) and fn.__name__ == f"cmd_{command}"
        assert getattr(cli, fn.__name__) is fn
    # a name left in an __all__ after its deletion breaks `import *`
    for info in [None, *pkgutil.iter_modules(quadprop.__path__)]:
        module = importlib.import_module(f"quadprop.{info.name}" if info else "quadprop")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
