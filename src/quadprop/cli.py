"""Command-line interface.

Commands: decompose, kernel, evolve, compose, verify. All numeric
output is printed with %.12e formatting (locale-independent); identical
inputs produce byte-identical output. Exit codes: 0 ok, 1 verification
failure, 2 bad input, 3 focal point, 4 boundary leak, 5 precision loss;
README's exit-code table gives the causes of each.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import sys

import numpy as np

from .errors import MAX_GRID_STEPS, BoundaryLeakError, FocalPointError, GridWorkLimitError
from .lie_core import QuadraticGenerator, normal_order, to_su11
from .propagator import GaussianWavepacket, convolve, kernel_from_abcd
from .symplectic import (
    ScheduleError,
    abcd_from_generator,
    compose_schedule,
    load_schedule,
    sr_from_abcd,
)
from .coherent_iwop import kernel_via_iwop

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_FOCAL_POINT = 3
EXIT_BOUNDARY_LEAK = 4
EXIT_PRECISION = 5

def _fmt(x: float) -> str:
    return "%.12e" % x


def _fmt_value(v) -> str:
    """A complex value as ``re im``, an int as a plain number, a float as ``_fmt``."""
    if isinstance(v, complex):
        return f"{_fmt(v.real)} {_fmt(v.imag)}"
    return str(v) if isinstance(v, int) else _fmt(v)


def _emit(args, chunks) -> None:
    """Write the text chunks, in order, to ``--output`` or to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require_finite(named) -> None:
    """Raise ValueError naming each non-finite value of the (name, value) pairs.

    None values are skipped. ``decompose``, ``kernel`` and ``compose`` call
    it in text and JSON mode alike, so that the error names the fields; the
    JSON encoder's allow_nan=False only backs it up. ``evolve`` calls it on
    ``l2_diff`` before it writes any row.
    """
    bad = [name for name, v in named if v is not None and not cmath.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite output: {', '.join(bad)}")


def _report(args, rows) -> None:
    """Write the (name, value) rows as ``name = value`` text lines, or as JSON.

    In JSON, A-D go under ``abcd`` with lowercase keys, complex values
    become ``{"re", "im"}``, and keys are sorted.
    """
    if not args.json:
        _emit(args, [f"{name:<19} = {_fmt_value(v)}\n" for name, v in rows])
        return
    payload = {}
    for name, v in rows:
        if isinstance(v, complex):
            v = {"re": v.real, "im": v.imag}
        if name in ("A", "B", "C", "D"):
            payload.setdefault("abcd", {})[name.lower()] = v
        else:
            payload[name] = v
    _emit(args, [_json_dump(payload)])


def cmd_decompose(args) -> int:
    g = args.generator
    p = to_su11(g)
    f = normal_order(g)
    m = abcd_from_generator(g)
    res_u = f.unitarity_residual()
    res_s = m.symplectic_residual()
    rows = [
        ("tau", p.tau), ("sigma", p.sigma), ("delta_sq", p.delta_sq),
        ("s", f.s), ("r", f.r), ("A", m.a), ("B", m.b), ("C", m.c), ("D", m.d),
        ("residual_unitarity", res_u), ("residual_symplectic", res_s),
    ]
    _require_finite(rows)
    f.require_unitary()
    m.require_symplectic()
    _report(args, rows)
    return EXIT_OK


def cmd_kernel(args) -> int:
    g = args.generator
    value = kernel_from_abcd(abcd_from_generator(g)).evaluate(args.q, args.Q)
    checks = []
    if args.check:
        checks.append(("check_diff", abs(value - kernel_via_iwop(g, args.q, args.Q))))
    _require_finite([("kernel", value), *checks])
    if args.json:
        _report(args, [("re", value.real), ("im", value.imag), *checks])
    else:
        _emit(args, [f"{_fmt_value(value)}\n", *(f"{n} = {_fmt(v)}\n" for n, v in checks)])
    return EXIT_OK


def _evolve_routes(args):
    """The closed-form state and the evolved grid of ``evolve``'s schedule.

    Reads the schedule file and applies it to ``args.packet`` through the
    composed kernel and to ``args.grid0`` through the grid oracle. The
    closed-form route is built first, so a schedule that reaches a focal
    point raises before any grid work, and where both routes fail the
    closed-form route's error is reported. An empty schedule leaves both
    routes at the initial packet.
    """
    from .oracle import grid_evolve

    schedule = load_schedule(args.schedule)
    if not schedule:
        return args.packet, args.grid0
    state = convolve(kernel_from_abcd(compose_schedule(schedule)), args.packet)
    return state, grid_evolve(schedule, args.grid0, steps=args.steps)


def cmd_evolve(args) -> int:
    state, grid = _evolve_routes(args)
    kernel_route, grid_route = state.evaluate(grid.x), grid.amplitudes
    diff = abs(kernel_route - grid_route)
    l2 = grid.distance(kernel_route)
    # a non-finite amplitude on either route makes l2_diff non-finite
    _require_finite([("l2_diff", l2)])

    from ._csvtext import csv_blocks  # loaded only where a CSV is written

    _emit(args, itertools.chain(
        ["x,re_kernel_route,im_kernel_route,re_grid_route,im_grid_route,abs_diff\n"],
        csv_blocks(grid.x, kernel_route.real, kernel_route.imag,
                   grid_route.real, grid_route.imag, diff),
        [f"l2_diff,{_fmt(l2)}\n"],
    ))
    return EXIT_OK


def cmd_compose(args) -> int:
    schedule = load_schedule(args.schedule)
    total = compose_schedule(schedule)
    f = sr_from_abcd(total)
    rows = [
        ("steps", len(schedule)), ("A", total.a), ("B", total.b), ("C", total.c), ("D", total.d),
        ("s", f.s), ("r", f.r), ("residual_symplectic", total.symplectic_residual()),
    ]
    _require_finite(rows)
    _report(args, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    summary = run_all()
    _emit(args, [_json_dump(summary)])
    return EXIT_OK if summary["pass"] else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="quadprop",
        description="Gaussian propagators of quadratic Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_generator(p):
        p.add_argument("alpha", type=float, help="coefficient of p^2")
        p.add_argument("beta", type=float, help="coefficient of qp+pq")
        p.add_argument("gamma", type=float, help="coefficient of q^2")

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("decompose", help="su(1,1) parameters, (s, r) factors and ABCD matrix")
    add_generator(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_output(p)

    p = sub.add_parser("kernel", help="propagator kernel value K(Q, q)")
    add_generator(p)
    p.add_argument("q", type=float, help="initial coordinate")
    p.add_argument("Q", type=float, help="final coordinate")
    p.add_argument("--check", action="store_true",
                   help="recompute through the coherent-state route and report the difference")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_output(p)

    p = sub.add_parser("evolve", help="wavepacket evolution, kernel route vs grid route, CSV")
    p.add_argument("schedule", help="step-schedule file (alpha beta gamma per line)")
    p.add_argument("--center-q", type=float, default=0.0)
    p.add_argument("--center-p", type=float, default=1.0)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--x-min", type=float, default=-40.0)
    p.add_argument("--x-max", type=float, default=40.0)
    p.add_argument("--n-points", type=int, default=4096)
    p.add_argument("--steps", type=int, default=4,
                   help="eighth-order Pade steps per unit of generator norm: an entry "
                        "(alpha, beta, gamma) takes ceil(steps * |(alpha, beta, gamma)|) "
                        "steps, at least one, of four shifted Cayley solves each; "
                        f"at most {MAX_GRID_STEPS} steps per schedule")
    add_output(p)

    p = sub.add_parser("compose", help="compose a schedule into one ABCD matrix")
    p.add_argument("schedule", help="step-schedule file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_output(p)

    p = sub.add_parser("verify", help="run every invariant suite, JSON summary")
    add_output(p)

    return parser


def _prepare(args) -> None:
    """Validate what argparse cannot and store the built inputs on ``args``.

    Raises ValueError for a bad generator, kernel point, packet, grid or
    ``--steps``.
    """
    if args.command in ("decompose", "kernel"):
        args.generator = QuadraticGenerator(args.alpha, args.beta, args.gamma)
    if args.command == "kernel":
        for name in ("q", "Q"):
            v = getattr(args, name)
            if not cmath.isfinite(v):
                raise ValueError(f"kernel coordinate {name} must be finite, got {v!r}")
    if args.command == "evolve":
        args.packet = GaussianWavepacket(
            center_q=args.center_q,
            center_p=args.center_p,
            width=args.width,
        )
        if args.steps < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
        from .oracle import Grid

        args.grid0 = Grid.from_wavepacket(
            args.packet, x_min=args.x_min, x_max=args.x_max, n_points=args.n_points,
        )


_DISPATCH = {
    "decompose": cmd_decompose,
    "kernel": cmd_kernel,
    "evolve": cmd_evolve,
    "compose": cmd_compose,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _prepare(args)
    except (ValueError, MemoryError) as exc:
        # a grid too large to allocate is as unusable as a malformed one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        # an overflow is reported once, by the guard or the finiteness check it trips
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[args.command](args)
    except (ScheduleError, GridWorkLimitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FocalPointError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FOCAL_POINT
    except BoundaryLeakError as exc:
        print(f"boundary leak: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY_LEAK
    except (ValueError, OverflowError) as exc:
        # digits lost: an invariant guard, a non-finite value or an overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
