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
from quadprop import cli

FREE_KERNEL_0_TO_1 = 0.38280491754448324 - 0.11231802257721920j


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_report(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, rest = line.partition("=")
        values[key.strip()] = [float(tok) for tok in rest.split()]
    return values


class TestDecompose:
    def test_free_particle_report(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "1", "0", "0"])
        assert code == 0
        vals = _parse_report(out)
        assert vals["s"] == pytest.approx([1.0, 0.5], abs=1e-12)
        assert vals["r"] == pytest.approx([0.0, -0.5], abs=1e-12)
        assert vals["A"][0] == pytest.approx(1.0)
        assert vals["B"][0] == pytest.approx(1.0)
        assert vals["C"][0] == pytest.approx(0.0)
        assert vals["D"][0] == pytest.approx(1.0)

    def test_zero_generator_residuals(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "0", "0", "0"])
        assert code == 0
        vals = _parse_report(out)
        assert vals["residual_unitarity"][0] == 0.0
        assert vals["residual_symplectic"][0] == 0.0

    def test_near_quarter_period(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "1.5708", "0", "1.5708"])
        assert code == 0
        vals = _parse_report(out)
        assert vals["A"][0] == pytest.approx(0.0, abs=1e-4)
        assert vals["B"][0] == pytest.approx(1.0, abs=1e-4)
        assert vals["C"][0] == pytest.approx(-1.0, abs=1e-4)
        assert vals["D"][0] == pytest.approx(0.0, abs=1e-4)

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "1", "0", "0", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == {"re": 1.0, "im": 0.5}
        assert payload["abcd"]["b"] == 1.0
        assert "residual_unitarity" in payload

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = _run(capsys, ["decompose", "-1.5", "0.25", "0.75"])
        _, second, _ = _run(capsys, ["decompose", "-1.5", "0.25", "0.75"])
        assert first == second

    def test_formatting_style(self, capsys):
        _, out, _ = _run(capsys, ["decompose", "1", "0", "0"])
        assert "1.000000000000e+00" in out


class TestKernel:
    def test_free_particle_value(self, capsys):
        code, out, _ = _run(capsys, ["kernel", "1", "0", "0", "0", "1"])
        assert code == 0
        re, im = (float(tok) for tok in out.split())
        assert complex(re, im) == pytest.approx(FREE_KERNEL_0_TO_1, abs=1e-9)

    def test_focal_point_exit_code(self, capsys):
        code, _, err = _run(capsys, ["kernel", "0", "0.6931", "0", "0", "0"])
        assert code == 3
        assert "focal point: B=0" in err

    def test_check_flag_reports_difference(self, capsys):
        code, out, _ = _run(capsys, ["kernel", "1.5708", "0", "1.5708", "1", "1", "--check"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        diff = float(lines[1].split("=")[1])
        assert diff < 1e-10

    @pytest.mark.parametrize("point", [["inf", "1"], ["0", "nan"]], ids=["q-inf", "Q-nan"])
    def test_non_finite_point_exit_code(self, capsys, point):
        code, out, err = _run(capsys, ["kernel", "1", "0", "0", *point])
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("error: kernel coordinate ")

    def test_json_with_check(self, capsys):
        code, out, _ = _run(capsys, ["kernel", "1", "0", "0", "0", "1", "--check", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["check_diff"] < 1e-10


class TestEvolve:
    def _write(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(body)
        return str(path)

    def test_free_schedule_csv(self, tmp_path, capsys):
        sched = self._write(tmp_path, "free.sched", "1.0 0.0 0.0\n")
        out_path = tmp_path / "out.csv"
        code = cli.main(["evolve", sched, "-o", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,re_kernel_route,im_kernel_route,re_grid_route,im_grid_route,abs_diff"
        assert len(lines) == 1 + 4096 + 1
        footer = lines[-1].split(",")
        assert footer[0] == "l2_diff"
        assert float(footer[1]) < 1e-3

    def test_empty_schedule_echoes_input(self, tmp_path, capsys):
        sched = self._write(tmp_path, "empty.sched", "# nothing\n\n")
        code, out, _ = _run(capsys, ["evolve", sched])
        assert code == 0
        lines = out.strip().splitlines()
        diffs = [float(row.split(",")[5]) for row in lines[1:-1]]
        assert max(diffs) < 1e-12
        assert float(lines[-1].split(",")[1]) < 1e-12

    def test_caustic_schedule_exit_code(self, tmp_path, capsys):
        pi = repr(math.pi)
        sched = self._write(tmp_path, "osc.sched", f"{pi} 0 {pi}\n")
        code, _, err = _run(capsys, ["evolve", sched])
        assert code == 3
        assert "focal point" in err

    def test_boundary_leak_exit_code(self, tmp_path, capsys):
        sched = self._write(tmp_path, "fast.sched", "1.0 0.0 0.0\n")
        code, _, err = _run(capsys, [
            "evolve", sched, "--center-p", "3.0",
            "--x-min", "-5", "--x-max", "5", "--n-points", "512",
        ])
        assert code == 4
        assert "boundary leak" in err

    def test_bad_schedule_exit_code(self, tmp_path, capsys):
        sched = self._write(tmp_path, "bad.sched", "1.0 2.0\n")
        code, _, err = _run(capsys, ["evolve", sched])
        assert code == 2
        assert "error" in err

    def test_missing_schedule_exit_code(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["evolve", str(tmp_path / "nope.sched")])
        assert code == 2

    @pytest.mark.parametrize("options", [
        ["--steps", "0"],
        ["--steps", "-5"],
        ["--n-points", "1000"],
        ["--x-min", "5", "--x-max", "-5"],
        ["--x-min=-inf"],
        ["--width", "1e-170"],
        ["--center-q", "1e200"],
        ["--width", "1e-160"],
        ["--width", "1e-80", "--center-q", "1e150"],
    ], ids=["zero-steps", "negative-steps", "point-count", "reversed-interval",
            "infinite-interval", "width-squared-underflows", "center-squared-overflows",
            "width-squared-subnormal", "center-over-width-squared-overflows"])
    def test_bad_grid_option_exit_code(self, tmp_path, capsys, options):
        sched = self._write(tmp_path, "free.sched", "1.0 0.0 0.0\n")
        code, out, err = _run(capsys, ["evolve", sched, *options])
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""

    def test_csv_rows_match_per_cell_format(self):
        # more rows than one formatting block, and not a multiple of it
        values = np.tile([0.0, -0.0, 1.0, -2.5e12, math.pi, 1e-300, 5e-324, 1e300,
                          123456789.123456789, -7.25e-8], 110) * np.linspace(1.0, 2.0, 1100)
        z = values + 1j * values[::-1]
        columns = (values, z.real, z.imag, values[::-1], -values, abs(z))
        per_cell = [",".join(cli._fmt(c[i]) for c in columns) + "\n" for i in range(values.size)]
        blocks = list(cli._csv_blocks(*columns))
        assert len(blocks) == 3
        assert "".join(blocks) == "".join(per_cell)

    def test_byte_identical_reruns(self, tmp_path):
        sched = self._write(tmp_path, "free.sched", "0.5 0.0 0.0\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["evolve", sched, "--steps", "200", "-o", str(a)]) == 0
        assert cli.main(["evolve", sched, "--steps", "200", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_route_tracks_kernel_route(self, tmp_path):
        # harmonic drive split into two quarter-period entries
        q = repr(math.pi / 4)
        sched = self._write(tmp_path, "osc2.sched", f"{q} 0 {q}\n{q} 0 {q}\n")
        out_path = tmp_path / "osc.csv"
        assert cli.main(["evolve", sched, "--center-q", "1.0", "--center-p", "0.0",
                         "-o", str(out_path)]) == 0
        footer = out_path.read_text().strip().splitlines()[-1]
        assert float(footer.split(",")[1]) < 5e-3


class TestCompose:
    def test_two_quarter_rotations(self, tmp_path, capsys):
        q = repr(math.pi / 4)
        path = tmp_path / "osc.sched"
        path.write_text(f"{q} 0 {q}\n{q} 0 {q}\n")
        code, out, _ = _run(capsys, ["compose", str(path)])
        assert code == 0
        vals = _parse_report(out)
        assert vals["A"][0] == pytest.approx(0.0, abs=1e-12)
        assert vals["B"][0] == pytest.approx(1.0, abs=1e-12)
        assert vals["steps"][0] == 2

    def test_empty_schedule_is_identity(self, tmp_path, capsys):
        path = tmp_path / "empty.sched"
        path.write_text("")
        code, out, _ = _run(capsys, ["compose", str(path), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["abcd"] == {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}

    def test_non_utf8_schedule_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.sched"
        path.write_bytes(b"1.0 0.0 0.0  # \xe9tape\n")
        code, out, err = _run(capsys, ["compose", str(path)])
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_exit_zero_when_suites_pass(self, tmp_path, monkeypatch):
        fake = {"pass": True, "suites": {"lie_core": {"pass": True}}}
        monkeypatch.setattr(cli, "run_all", lambda inject_fault=False: fake)
        out_path = tmp_path / "summary.json"
        assert cli.main(["verify", "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["pass"] is True

    def test_exit_one_when_a_suite_fails(self, monkeypatch, capsys):
        fake = {"pass": False, "suites": {"lie_core": {"pass": False}}}
        monkeypatch.setattr(cli, "run_all", lambda inject_fault=False: fake)
        code, out, _ = _run(capsys, ["verify"])
        assert code == 1

    def test_inject_fault_is_forwarded(self, monkeypatch, capsys):
        seen = {}

        def fake_run_all(inject_fault=False):
            seen["flag"] = inject_fault
            return {"pass": not inject_fault, "suites": {}}

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        assert cli.main(["verify", "--inject-fault"]) == 1
        assert seen["flag"] is True
        capsys.readouterr()


@pytest.mark.parametrize("argv, schedule", [
    (["kernel", "0", "20", "0", "0", "1"], None),
    (["compose"], "0 20 0\n"),
    (["decompose", "0", "1000", "0", "--json"], None),
    (["decompose", "0", "1000", "0"], None),
    (["kernel", "1", "0", "0", "1e200", "1", "--check"], None),
    (["kernel", "1", "0", "0", "1e200", "1", "--check", "--json"], None),
    # overflow: A = inf and B = 0 give det-1 = NaN, not a focal point
    (["kernel", "0", "1000", "0", "0", "1"], None),
    (["kernel", "0", "1000", "0", "0", "1", "--json"], None),
    (["compose"], "0 1000 0\n"),
    # the packet's momentum overflows in the closed-form convolution
    (["evolve", "--center-p", "1e300", "--steps", "1"], "1.0 0.0 0.0\n"),
    # finite output, but D = 0 and both residuals read -1
    (["decompose", "0", "30", "0"], None),
], ids=["kernel-not-symplectic", "compose-drift", "decompose-json-infinity",
        "decompose-text-infinity", "kernel-text-nan", "kernel-json-nan",
        "kernel-nan-residual", "kernel-json-nan-residual", "compose-nan-residual",
        "evolve-convolve-overflow", "decompose-not-unitary"])
def test_precision_loss_exit_code(tmp_path, capsys, argv, schedule):
    if schedule is not None:
        path = tmp_path / "drift.sched"
        path.write_text(schedule)
        argv = [*argv, str(path)]
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_PRECISION == 5
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, fields", [
    (["kernel", "1", "0", "0", "1e200", "1", "--check", "--json"], "kernel, check_diff"),
    (["decompose", "0", "1000", "0", "--json"],
     "s, r, A, residual_unitarity, residual_symplectic"),
], ids=["kernel", "decompose"])
def test_json_mode_names_the_non_finite_fields(capsys, argv, fields):
    # the error line of text mode, not the JSON encoder's message
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (cli.EXIT_PRECISION, "", f"error: non-finite output: {fields}\n")


def test_overflow_writes_one_error_line_and_no_warning():
    # In a fresh process with warnings shown, an overflowing exponent must
    # reach the user as the one error line, not as numpy RuntimeWarnings.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "quadprop.cli",
         "kernel", "1", "0", "0", "1e200", "1", "--check"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == cli.EXIT_PRECISION
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite output: kernel, check_diff\n"


def test_compose_names_the_step_that_lost_digits(tmp_path, capsys):
    # abcd_from_generator(0, 20, 0) already has det-1 = 2.5e-3 (hyperbolic
    # cancellation at delta_sq = 400) before any product is taken.
    path = tmp_path / "bad_step.sched"
    path.write_text("0 1 1\n0 20 0\n1 0 1\n")
    code, out, err = _run(capsys, ["compose", str(path)])
    assert code == cli.EXIT_PRECISION
    assert out == ""
    assert err == "error: matrix is not symplectic: det-1 = 2.532e-03 (schedule step 2)\n"


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
