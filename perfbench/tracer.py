"""In-memory span tracer for quadprop's public functions.

The tracer wraps each traced function from the outside: it replaces every
binding of the function in the loaded ``quadprop`` modules (the defining
module, the ``from .x import y`` copies, and module-level dispatch tables
such as ``cli._DISPATCH``) with a wrapper that records one span per call.
The library source is not modified.

A span is ``(name_id, start, end, parent, error)``. Spans stay in memory
until the run ends; ``layer_stats`` derives each function's self time as
its span time minus the time covered by its direct child spans.

Run as a script, this module executes one traced ``quadprop.cli.main``
call and writes its spans as JSON, so one-shot CLI subprocesses can be
traced too::

    python3 perfbench/tracer.py SPANS.json -- decompose 1 0 1 --json
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute) of every traced callable; "Class.method" names a method.
TRACED = [
    ("lie_core", "normal_order"),
    ("lie_core", "to_su11"),
    ("symplectic", "abcd_from_generator"),
    ("symplectic", "matrix_exp_oracle"),
    ("symplectic", "abcd_from_sr"),
    ("symplectic", "sr_from_abcd"),
    ("symplectic", "compose"),
    ("symplectic", "load_schedule"),
    ("propagator", "kernel_from_sr"),
    ("propagator", "kernel_from_abcd"),
    ("propagator", "GaussianKernel.evaluate"),
    ("propagator", "convolve"),
    ("propagator", "compose_kernels"),
    ("propagator", "generating_function"),
    ("propagator", "ComplexGaussian.evaluate"),
    ("coherent_iwop", "kernel_via_iwop"),
    ("coherent_iwop", "gaussian_integral"),
    ("coherent_iwop", "sandwich"),
    ("coherent_iwop", "overlap_position"),
    ("oracle", "fock_unitary_direct"),
    ("oracle", "fock_unitary_ordered"),
    ("oracle", "grid_evolve"),
    ("cli", "main"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_kernel"),
    ("cli", "cmd_compose"),
    ("cli", "cmd_evolve"),
    ("verify", "lie_core_suite"),
    ("verify", "symplectic_suite"),
    ("verify", "propagator_suite"),
    ("verify", "iwop_suite"),
    ("verify", "oracle_suite"),
]

GRID = "oracle.grid_evolve"


def _grid_work(args, kwargs):
    """Planned Crank-Nicolson work of one grid_evolve call: (sub-steps, points x sub-steps)."""
    schedule = args[0] if args else kwargs["g_schedule"]
    psi0 = args[1] if len(args) > 1 else kwargs["psi0"]
    steps = args[2] if len(args) > 2 else kwargs.get("steps")
    if steps is None:
        steps = max(1, round(1.0 / psi0.dt))
    substeps = len(schedule) * steps
    return substeps, substeps * psi0.n_points


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed and enabled."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.grid_substeps = 0
        self.grid_points_x_substeps = 0
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, name: str, fn):
        """``fn`` with one span per call, named ``name``."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        is_grid = name == GRID

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_grid:
                substeps, work = _grid_work(args, kwargs)
                self.grid_substeps += substeps
                self.grid_points_x_substeps += work
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, error)

        traced.__wrapped__ = fn
        return traced

    def current(self) -> int:
        """Id of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def paused(self):
        """Calls made inside this block (e.g. untimed correctness checks) are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def install(self) -> None:
        """Patch every binding of each traced callable in the loaded quadprop modules."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"quadprop.{mod_name}")
        everywhere = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "quadprop" or k.startswith("quadprop."))]
        for mod_name, attr in TRACED:
            mod = sys.modules[f"quadprop.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig)
            for m in everywhere:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                self._patches.append((val, dkey, orig))
                                val[dkey] = wrapper

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def merge(self, names: list[str], spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a traced subprocess) under span ``parent``."""
        base = len(self.spans)
        ids = [self.name_id(n) for n in names]
        for nid, t0, t1, par, err in spans:
            self.spans.append((ids[nid], t0, t1, parent if par < 0 else base + par, err))

    def dump(self, path) -> None:
        """Write all spans as gzip CSV: id,name,start,end,parent,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,error\n")
            for sid, (nid, t0, t1, par, err) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[nid]},{t0!r},{t1!r},{par},{err}\n")


def layer_stats(tracer: Tracer) -> dict:
    """Per span name: calls, wall_s (summed span time), self_s and errors."""
    child = [0.0] * len(tracer.spans)
    for nid, t0, t1, par, err in tracer.spans:
        if par >= 0:
            child[par] += t1 - t0
    stats = {n: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "errors": 0} for n in tracer.names}
    for sid, (nid, t0, t1, par, err) in enumerate(tracer.spans):
        s = stats[tracer.names[nid]]
        s["calls"] += 1
        s["wall_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - child[sid]
        s["errors"] += err
    return stats


def _main(argv: list[str]) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- CLI_ARGS...")
    import quadprop.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = quadprop.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans,
                       "grid": [tracer.grid_substeps, tracer.grid_points_x_substeps]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
