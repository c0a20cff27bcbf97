"""The four benchmark workloads: seeded inputs, one timed op each, untimed checks.

Every workload is a closed loop with one client. Its inputs are generated
from the workload seed at set-up; the program only ever sees the generated
inputs (generator triples, schedule files, and the seed handed to
``run_all``). ``run(i)`` performs op ``i`` of one pass over those inputs and
``check(i, out)`` verifies its output, or the exception it raised, against
an independent reference.

A check returns ``None`` when the op is correct and otherwise
``(kind, detail)``. The kind names the documented defect a failure falls
into, so that the failures it causes are counted without hiding them:

* ``caustic``: an ``evolve`` schedule whose classical flow crosses a focal
  point (B changes sign) misses the grid agreement or exits with
  ``EXIT_FOCAL_POINT``. The closed-form kernel then has the wrong sign.
* ``precision``: digits lost by cancellation in the closed-form core. On
  the stated large-delta slice: a tolerance miss, or one of the library's
  declared errors (see ``_known_error``). Elsewhere: near a caustic, where
  the reference ABCD has kappa = max|entry| / |B| above 5, a tolerance
  miss of at most 1e-9 kappa relative (the error cancellation leaves grows
  like kappa).
* ``unexpected``: anything else, including any other exception, exit code
  or non-finite output. Only these make a run incorrect.

``kind(i)`` names the class of op ``i`` whose ops cost about the same; the
benchmark takes a percentile of op time per class. ``PASS_S`` is about the
time of one pass with its checks on the reference host (a 2-vCPU Intel Xeon
virtual machine); it sets how many passes a run of a given length makes.

Library modules, scipy and the tracer are imported where they are used, so
a workload's set-up pays only for the modules it calls.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Near a caustic (kappa = max|ABCD entry| / |B| above _NEAR_CAUSTIC) a
# failed check with at most _LOSS_PER_KAPPA * kappa relative error is digits
# lost, not a wrong answer. Over seeds 1 to 40 the misses off the
# large-delta slice had error / kappa of at most 2e-11.
_LOSS_PER_KAPPA = 1e-9
_NEAR_CAUSTIC = 5.0
# ValueError messages of the library's own invariant guards, which the
# large-delta slice trips when cancellation has eaten the digits.
_GUARD_MESSAGES = ("matrix is not symplectic", "factors are not unitary",
                   "Re(quad) must be negative")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _finite(*values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


def _rel(got, ref) -> float:
    """max |got - ref| / max |ref| over paired sequences."""
    scale = max(abs(r) for r in ref)
    return max(abs(g - r) for g, r in zip(got, ref)) / scale


def _known_limit(in_slice: bool, abcd) -> float:
    """Largest relative error counted as the precision defect rather than a wrong
    answer, given the reference (A, B, C, D)."""
    if in_slice:
        return math.inf
    kappa = max(abs(v) for v in abcd) / abs(abcd[1]) if abcd[1] else math.inf
    return _LOSS_PER_KAPPA * kappa if kappa > _NEAR_CAUSTIC else 0.0


def _classify(err: float, tol: float, limit: float, what: str):
    """None within ``tol``; a precision failure up to ``limit``; else unexpected.

    An infinite limit takes every miss, a NaN error (overflowed reference) too.
    """
    if err <= tol:
        return None
    detail = f"{what} {err:.3e} > {tol:.0e}"
    if err <= limit or limit == math.inf:
        return ("precision", detail)
    return ("unexpected", detail)


def _known_error(exc: Exception) -> bool:
    """An error the library declares for lost digits or a degenerate kernel."""
    from quadprop.errors import FocalPointError, NonConvergentError

    if isinstance(exc, (FocalPointError, NonConvergentError)):
        return True
    return type(exc) is ValueError and str(exc).startswith(_GUARD_MESSAGES)


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _write_schedule(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(a)!r} {float(b)!r} {float(c)!r}\n" for a, b, c in rows)


class Verify:
    """``quadprop.verify.run_all(seed)``: the certification sweep of ``quadprop verify``."""

    name = "verify"
    PASS_S = 20.0

    def __init__(self, seed: int, tmp: str):
        from quadprop import verify

        self.verify = verify
        self.seed = seed
        self.size = 1

    def kind(self, i: int) -> str:
        return "run_all"

    def run(self, i: int, tracer=None):
        return self.verify.run_all(seed=self.seed)

    def check(self, i: int, out):
        if isinstance(out, Exception):
            return ("unexpected", _raised(out))
        if out["pass"]:
            return None
        bad = [f"{s}.{c}" for s, suite in out["suites"].items()
               for c, chk in suite["checks"].items() if not chk["pass"]]
        return ("unexpected", "failed checks: " + ", ".join(bad))


def focal_crossings(rows, samples: int = 512) -> int:
    """Sign changes of B along the exact classical flow of an elliptic schedule.

    Step (alpha, beta, gamma) flows by exp(tau G) = cos(w tau) + sin(w tau) G / w
    with G = [[beta, alpha], [-gamma, -beta]] and w^2 = alpha gamma - beta^2.
    """
    tau = np.linspace(0.0, 1.0, samples + 1)[1:]
    total = np.eye(2)
    positive = []
    for a, b, c in rows:
        w = math.sqrt(a * c - b * b)
        gen = np.array([[b, a], [-c, -b]])
        b_path = np.cos(w * tau) * total[0, 1] + np.sin(w * tau) / w * (gen[0] @ total[:, 1])
        positive.extend(b_path > 0)
        total = (math.cos(w) * np.eye(2) + math.sin(w) / w * gen) @ total
    return int(np.count_nonzero(np.diff(positive)))


class Evolve:
    """In-process ``quadprop evolve`` on the default 4096-point, 1000-sub-step grid.

    Eight schedules of 2, 3 or 4 harmonic-like elliptic steps. Even-numbered
    schedules turn by a total phase below pi (before the first focal point),
    odd-numbered ones by a phase between pi and 2 pi (past it).
    """

    name = "evolve"
    PASS_S = 7.5
    STEP_COUNTS = (2, 3, 4, 2, 3, 4, 2, 3)

    def __init__(self, seed: int, tmp: str):
        from quadprop import cli

        self.cli = cli
        rng = _rng(seed, 1)
        self.argv, self.crossings = [], []
        self.out_path = os.path.join(tmp, "evolve.csv")
        for i, n in enumerate(self.STEP_COUNTS):
            lo, hi = (0.5, math.pi - 0.3) if i % 2 == 0 else (math.pi + 0.3, 2 * math.pi - 0.5)
            phase = rng.uniform(lo, hi)
            shares = rng.dirichlet(np.full(n, 4.0)) * phase
            rows = []
            for share in shares:
                m, omega = rng.uniform(0.9, 1.1, size=2)
                eps = rng.uniform(-0.1, 0.1) * omega
                t = share / math.sqrt(omega * omega - eps * eps)
                rows.append((t / m, eps * t, m * omega * omega * t))
            path = os.path.join(tmp, f"schedule_{i}.txt")
            _write_schedule(path, rows)
            cq, cp, width = (repr(v) for v in rng.uniform((-0.5, -0.5, 0.9), (0.5, 0.5, 1.1)).tolist())
            self.argv.append(["evolve", path, "--center-q", cq, "--center-p", cp,
                              "--width", width, "-o", self.out_path])
            self.crossings.append(focal_crossings(rows))
        self.size = len(self.argv)

    def kind(self, i: int) -> str:
        return f"{self.STEP_COUNTS[i]}-step"

    def run(self, i: int, tracer=None):
        try:
            return self.cli.main(self.argv[i])
        except SystemExit as exc:
            return exc.code

    def check(self, i: int, rc):
        kind = "caustic" if self.crossings[i] else "unexpected"
        if isinstance(rc, Exception):
            return ("unexpected", _raised(rc))
        if rc == self.cli.EXIT_FOCAL_POINT:
            return (kind, f"exit code {rc} (focal point)")
        if rc != 0:
            return ("unexpected", f"exit code {rc}")
        with open(self.out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != 4096 + 2 or not lines[-1].startswith("l2_diff,"):
            return ("unexpected", f"malformed CSV ({len(lines)} lines)")
        if any(tok in line for line in lines for tok in ("nan", "inf")):
            return ("unexpected", "non-finite value in CSV")
        l2 = float(lines[-1].split(",")[1])
        if not l2 <= 1e-3:
            return (kind, f"l2_diff {l2:.3e} > 1e-3")
        return None


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _expm(a, b, c) -> np.ndarray:
    """exp of the generator's 2x2 classical flow matrix, by scipy."""
    import scipy.linalg

    return scipy.linalg.expm(np.array([[b, a], [-c, -b]]))


class Cli:
    """One-shot ``python -m quadprop.cli`` subprocesses, cycling
    ``decompose --json``, ``kernel --check --json`` and ``compose --json``."""

    name = "cli"
    PASS_S = 6.5
    CYCLES = 4
    COMPOSE_STEPS = 2000

    def __init__(self, seed: int, tmp: str):
        rng = _rng(seed, 2)
        self.tmp = tmp
        self.cmds, self.refs = [], []
        for k in range(self.CYCLES):
            g = [repr(v) for v in rng.uniform(-5.0, 5.0, size=3).tolist()]
            self.cmds.append(["decompose", *g, "--json"])
            self.refs.append(None)
            g = [repr(v) for v in rng.uniform(-5.0, 5.0, size=3).tolist()]
            q, big_q = (repr(v) for v in rng.uniform(-2.0, 2.0, size=2).tolist())
            self.cmds.append(["kernel", *g, q, big_q, "--check", "--json"])
            self.refs.append(None)
            # Rotation-dominated steps keep the long product bounded.
            theta = rng.uniform(-math.pi, math.pi, size=self.COMPOSE_STEPS)
            eps = rng.uniform(-0.01, 0.01, size=(self.COMPOSE_STEPS, 3))
            rows = [(t + e[0], e[1], t + e[2]) for t, e in zip(theta, eps)]
            path = os.path.join(tmp, f"compose_{k}.txt")
            _write_schedule(path, rows)
            self.cmds.append(["compose", path, "--json"])
            self.refs.append(rows)
        self.size = len(self.cmds)
        self.max_child_rss_kb = 0

    def kind(self, i: int) -> str:
        return self.cmds[i][0]

    def run(self, i: int, tracer=None):
        spans = os.path.join(self.tmp, "spans.json")
        if tracer is None:
            argv = [sys.executable, "-m", "quadprop.cli", *self.cmds[i]]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--", *self.cmds[i]]
        out_path = os.path.join(self.tmp, "stdout.txt")
        err_path = os.path.join(self.tmp, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            with open(spans, encoding="utf-8") as fh:
                rec = json.load(fh)
            tracer.merge(rec["names"], rec["spans"], parent=tracer.current())
            tracer.grid_substeps += rec["grid"][0]
            tracer.grid_points_x_substeps += rec["grid"][1]
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return proc.returncode, out.read(), err.read()

    def check(self, i: int, out):
        if isinstance(out, Exception):
            return ("unexpected", _raised(out))
        rc, text, err = out
        if rc != 0:
            return ("unexpected", f"exit code {rc}: {err.strip()[-200:]}")
        try:
            doc = _strict_json(text)
        except ValueError as exc:
            return ("unexpected", f"invalid JSON: {exc}")
        cmd = self.cmds[i]
        if cmd[0] == "decompose":
            ref = _expm(*(float(v) for v in cmd[1:4]))
            limit = _known_limit(False, ref.ravel())
            m = doc["abcd"]
            got = (m["a"], m["b"], m["c"], m["d"])
            if not _finite(*got, doc["residual_unitarity"], doc["residual_symplectic"]):
                return ("unexpected", "non-finite output")
            return (_classify(abs(doc["residual_unitarity"]), 1e-10, limit, "unitarity residual")
                    or _classify(abs(doc["residual_symplectic"]), 1e-10, limit, "det residual")
                    or _classify(_rel(got, ref.ravel()), 1e-10, limit, "ABCD vs expm"))
        if cmd[0] == "kernel":
            limit = _known_limit(False, _expm(*(float(v) for v in cmd[1:4])).ravel())
            value = complex(doc["re"], doc["im"])
            if not _finite(value, doc["check_diff"]):
                return ("unexpected", "non-finite output")
            diff = doc["check_diff"]
            if diff <= 1e-10:
                return None
            kind = "precision" if diff <= limit * abs(value) else "unexpected"
            return (kind, f"check_diff {diff:.3e} > 1e-10")
        m = doc["abcd"]
        got = (m["a"], m["b"], m["c"], m["d"])
        if not _finite(*got, doc["residual_symplectic"]):
            return ("unexpected", "non-finite output")
        if doc["steps"] != self.COMPOSE_STEPS:
            return ("unexpected", f"steps {doc['steps']} != {self.COMPOSE_STEPS}")
        total = np.eye(2)
        for a, b, c in self.refs[i]:
            total = _expm(a, b, c) @ total
        return (_classify(abs(doc["residual_symplectic"]), 1e-9, 0.0, "det residual")
                or _classify(_rel(got, total.ravel()), 1e-9, 0.0, "ABCD vs expm product"))


class ClosedForm:
    """Scalar closed-form pipeline, one generator per op: normal_order,
    abcd_from_generator, kernel_from_abcd(...).evaluate, convolve and
    kernel_via_iwop.

    95 % of the generators are uniform in [-5, 5]^3 like
    ``verify.random_generators``; the stated 5 % slice is hyperbolic with
    delta_sq log-uniform in [1, 1e6].
    """

    name = "closed_form"
    PASS_S = 7.0
    SIZE = 20_000
    SLICE = 0.05

    def __init__(self, seed: int, tmp: str):
        from quadprop import coherent_iwop, lie_core, propagator, symplectic

        # Called through the modules, so that the tracer's patches apply.
        self.modules = (lie_core, symplectic, propagator, coherent_iwop)
        rng = _rng(seed, 3)
        vals = rng.uniform(-5.0, 5.0, size=(self.SIZE, 3))
        self.in_slice = rng.random(self.SIZE) < self.SLICE
        for i in np.flatnonzero(self.in_slice):
            while True:
                v = rng.uniform(-5.0, 5.0, size=3)
                delta_sq = v[1] * v[1] - v[0] * v[2]
                if delta_sq > 0.1:
                    break
            vals[i] = v * math.sqrt(10.0 ** rng.uniform(0.0, 6.0) / delta_sq)
        self.gens = [lie_core.QuadraticGenerator(*row) for row in vals.tolist()]
        self.points = rng.uniform(-2.0, 2.0, size=(self.SIZE, 2)).tolist()
        packets = np.column_stack([rng.uniform(-2.0, 2.0, size=(self.SIZE, 2)),
                                   rng.uniform(0.5, 2.0, size=self.SIZE)]).tolist()
        self.packets = [propagator.GaussianWavepacket(cq, cp, w) for cq, cp, w in packets]
        self.kinds = ["slice" if s else "hyperbolic" if b * b > a * c else "elliptic"
                      for s, (a, b, c) in zip(self.in_slice.tolist(), vals.tolist())]
        self.size = self.SIZE

    def kind(self, i: int) -> str:
        return self.kinds[i]

    def run(self, i: int, tracer=None):
        lie_core, symplectic, propagator, coherent_iwop = self.modules
        g = self.gens[i]
        q, big_q = self.points[i]
        f = lie_core.normal_order(g)
        m = symplectic.abcd_from_generator(g)
        k = propagator.kernel_from_abcd(m)
        value = k.evaluate(q, big_q)
        state = propagator.convolve(k, self.packets[i])
        via = coherent_iwop.kernel_via_iwop(g, q, big_q)
        return f, m, value, state, via

    def check(self, i: int, out):
        in_slice = bool(self.in_slice[i])
        if isinstance(out, Exception):
            kind = "precision" if in_slice and _known_error(out) else "unexpected"
            return (kind, _raised(out))
        f, m, value, state, via = out
        if not _finite(f.s, f.r, m.a, m.b, m.c, m.d, value, state.quad, state.lin,
                       state.amp, via):
            return ("unexpected", "non-finite output")
        o = self.modules[1].matrix_exp_oracle(self.gens[i])
        limit = _known_limit(in_slice, (o.a, o.b, o.c, o.d))
        err_abcd = _rel((m.a, m.b, m.c, m.d), (o.a, o.b, o.c, o.d))
        err_norm = abs(state.norm() - 1.0)
        err_iwop = abs(via - value) / abs(value)
        return (_classify(err_abcd, 1e-10, limit, "ABCD vs matrix_exp_oracle")
                or _classify(err_iwop, 1e-10, limit, "kernel_via_iwop vs direct")
                or _classify(err_norm, 1e-10, limit, "convolve norm drift"))


WORKLOADS = {w.name: w for w in (Verify, Evolve, Cli, ClosedForm)}


def peak_rss_mb(workload) -> float:
    """Peak resident memory of the workload's process; for ``cli`` its largest child."""
    if isinstance(workload, Cli):
        return workload.max_child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
