#!/usr/bin/env python3
"""quadprop benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload makes as many whole passes over its inputs
as fill about ``--seconds`` on the reference host, timed untraced, and the
end-to-end metrics are printed. With ``--trace 1`` one
pass over the workload's inputs runs untraced, then the same pass runs
traced; the per-layer metrics and the tracing overhead (traced minus
untraced op time) are printed, and the spans are written to
``.perfbench_out/``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Library code is imported from ``src/`` of the checkout this file sits in.
BLAS runs on one thread in every process the benchmark starts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("verify", "evolve", "cli", "closed_form")
# Set-up probes per run: one before the timed loop, the rest spread through
# it (between ops) and, where the loop is too short for them, after it.
SETUP_PROBES = 10
IMPORT_PROBES = 3
IMPORTED = ("quadprop", "quadprop.oracle", "quadprop.verify", "scipy.linalg", "numpy")
# Workload-specific names of the printed statistics.
ALIASES = {
    ("verify", "op_p50_s"): "verify_s",
    ("evolve", "op_p50_s"): "evolve_p50_s",
    ("cli", "op_p50_s"): "cli_p50_s",
    ("closed_form", "ops_per_s"): "closed_form_per_s",
}
# End-to-end metrics in the result. Low order statistics stand in for the
# median: the cores are shared, and neighbours' load switches op speed
# between two levels about 1.6x apart on a scale of seconds, which moves
# the median and the mean by tens of percent between runs.
END_TO_END = {"setup_s": "s", "pass_p10_s": "s", "peak_rss_mb": "MB"}


def per_layer_spec() -> dict:
    """Name -> unit of every per-layer metric, in print order."""
    from tracer import TRACED

    spec = {}
    for mod, attr in TRACED:
        name = f"{mod}.{attr}"
        if mod == "verify":
            spec[f"{name}.wall_s"] = "s"
            spec[f"{name}.self_s"] = "s"
        elif name == "cli.main":
            spec[f"{name}.calls"] = "count"
        elif mod == "cli":
            spec[f"{name}.self_s"] = "s"
        elif name == "oracle.grid_evolve":
            spec.update({f"{name}.self_s": "s", f"{name}.substeps": "count",
                         f"{name}.points_x_substeps": "count",
                         f"{name}.s_per_substep": "s", f"{name}.errors": "count"})
        else:
            spec.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                         f"{name}.errors": "count"})
    for mod in IMPORTED:
        spec[f"import.{mod}.cum_s"] = "s"
    spec["trace.overhead_s"] = "s"
    return spec


def measure(workload, count, tracer=None, probe=None, probes=0):
    """Run exactly ``count`` ops closed-loop, one client.

    Op ``i`` is input ``i % workload.size``. ``probe`` is called between
    ops at even shares of ``count``, at most ``probes`` times; its time is
    not op time. Returns per-op latencies and the failed checks as
    (op, kind, detail).

    Checks run after each op, outside its timing and with tracing paused; an
    op that raises hands its exception to the check.
    """
    latencies, failures = [], []
    run = workload.run if tracer is None else tracer.wrap("bench.op", workload.run)
    due = collections.Counter(count * (k + 1) // (probes + 1) for k in range(probes))
    for i in range(count):
        j = i % workload.size
        t0 = time.perf_counter()
        try:
            out = run(j, tracer)
        except Exception as exc:  # a raising op is a failed op; its check classifies it
            out = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is None:
            failure = workload.check(j, out)
        else:
            with tracer.paused():
                failure = workload.check(j, out)
        if failure is not None:
            failures.append((j, *failure))
        if probe and i + 1 < count:
            for _ in range(due[i + 1]):
                probe()
    return latencies, failures


def passes(workload, seconds: float) -> int:
    """Whole passes over the inputs that fill about ``seconds`` on the reference host.

    The amount of work is fixed by ``seconds`` and the workload, never by
    how fast the host runs, so a seed always gives the same ops, the same
    ``attempted`` and the same ``failed``.
    """
    return max(1, round(seconds / workload.PASS_S))


def setup_seconds(name: str, seed: int) -> float:
    """Process start to end of set-up (imports, input generation), in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}, {line!r})")
    return elapsed


def import_seconds() -> dict:
    """Median cumulative import time per module of ``import quadprop.cli``."""
    samples = {m: [] for m in IMPORTED}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadprop.cli"],
                              capture_output=True, text=True, timeout=120, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cum[fields[2].strip()] = int(fields[1]) * 1e-6
        for m in IMPORTED:
            samples[m].append(cum.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def percentile(latencies, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def per_kind(workload, latencies, p: float) -> dict:
    """Kind -> (ops of that kind in one pass, p-th percentile of their op times)."""
    times = collections.defaultdict(list)
    for i, t in enumerate(latencies):
        times[workload.kind(i % workload.size)].append(t)
    per_pass = collections.Counter(workload.kind(j) for j in range(workload.size))
    return {k: (n, percentile(times[k], p)) for k, n in per_pass.items()}


def pass_seconds(workload, latencies, p: float) -> float:
    """Time of one pass over the inputs, each op at its kind's p-th percentile."""
    return sum(n * t for n, t in per_kind(workload, latencies, p).values())


def tail(latencies) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def report(name, latencies, failures, correct):
    kinds = {}
    for _, kind, _ in failures:
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"workload {name}: {len(latencies)} ops, {len(failures)} failed "
          f"(fail_ratio {len(failures) / len(latencies):.4g} [1], by kind {kinds or '{}'}), "
          f"correct={correct}")
    for j, kind, detail in failures[:8]:
        print(f"  failed op {j} [{kind}]: {detail}")


def run_end_to_end(workload, name, seed, seconds) -> dict:
    from workloads import peak_rss_mb

    setup = []

    def probe():
        setup.append(setup_seconds(name, seed))

    probe()
    latencies, failures = measure(workload, passes(workload, seconds) * workload.size,
                                     probe=probe, probes=SETUP_PROBES - 1)
    rss = peak_rss_mb(workload)
    while len(setup) < SETUP_PROBES:
        probe()
    metrics = {
        "setup_s": min(setup),
        "pass_p10_s": pass_seconds(workload, latencies, 10),
        "peak_rss_mb": rss,
    }
    correct = not any(kind == "unexpected" for _, kind, _ in failures)
    report(name, latencies, failures, correct)
    shown = dict(metrics, op_p50_s=statistics.median(latencies),
                 ops_per_s=len(latencies) / sum(latencies))
    units = dict(END_TO_END, op_p50_s="s", ops_per_s="1/s")
    for key, value in shown.items():
        alias = ALIASES.get((name, key))
        label = f"{alias} ({key})" if alias else key
        print(f"  {label:<34} {value:.6g} {units[key]}")
    t = tail(latencies)
    label = "cli_tail_s" if name == "cli" else "op_tail_s"
    if t is None:
        print(f"  {label:<34} n/a: {len(latencies)} samples, a tail needs at least 11")
    else:
        print(f"  {label:<34} {t[1]:.6g} s at p{t[0]:.2f} ({len(latencies)} samples, 10 beyond)")
    for kind, (n, t) in per_kind(workload, latencies, 10).items():
        print(f"  {kind:<14} {n:>6} per pass, p10 {t:.6g} s")
    print(f"  setup samples {[round(v, 4) for v in setup]}")
    return {
        "correct": correct,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def run_traced(workload, name, seed) -> dict:
    from tracer import Tracer, layer_stats

    plain, failures = measure(workload, workload.size)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures = measure(workload, workload.size, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    stats = layer_stats(tracer)
    imports = import_seconds()
    zero = {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "errors": 0}
    values = {}
    for key in per_layer_spec():
        layer, stat = key.rsplit(".", 1)
        if key == "oracle.grid_evolve.substeps":
            values[key] = tracer.grid_substeps
        elif key == "oracle.grid_evolve.points_x_substeps":
            values[key] = tracer.grid_points_x_substeps
        elif key == "oracle.grid_evolve.s_per_substep":
            s = stats.get("oracle.grid_evolve", zero)["self_s"]
            values[key] = s / tracer.grid_substeps if tracer.grid_substeps else 0.0
        elif layer.startswith("import."):
            values[key] = imports[layer.removeprefix("import.")]
        elif key == "trace.overhead_s":
            values[key] = sum(traced) - sum(plain)
        else:
            values[key] = stats.get(layer, zero)[stat]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.csv.gz")
    tracer.dump(spans_path)

    correct = not any(kind == "unexpected" for _, kind, _ in failures)
    report(name, plain + traced, failures, correct)
    print(f"  one pass of {workload.size} ops: untraced {sum(plain):.6g} s, "
          f"traced {sum(traced):.6g} s, overhead {values['trace.overhead_s']:.6g} s "
          f"({len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)})")
    spec = per_layer_spec()
    for key, value in values.items():
        if value:
            print(f"  {key:<52} {value:.6g} {spec[key]}")
    return {
        "correct": correct,
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": spec[k]} for k, v in values.items()},
    }


def run_every_workload(args) -> int:
    """Each workload in its own process, one after another; their results as one JSON object."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "quadprop", "__init__.py")):
        print(f"error: no quadprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if args.workload == "all":
        return run_every_workload(args)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            result = run_traced(workload, args.workload, args.seed)
        else:
            result = run_end_to_end(workload, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
