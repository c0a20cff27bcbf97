"""Command-line interface.

Commands: decompose, kernel, evolve, compose, verify. All numeric
output is printed with %.12e formatting (locale-independent); identical
inputs produce byte-identical output. Exit codes: 0 ok, 1 verification
failure, 2 parse error, 3 focal point, 4 boundary leak, 5 precision loss
(an invariant guard, a non-finite value in JSON or in the decompose or
kernel report, or an overflowing intermediate).
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import sys

from .errors import BoundaryLeakError, FocalPointError
from .lie_core import QuadraticGenerator, normal_order, to_su11
from .oracle import Grid, grid_evolve
from .propagator import GaussianWavepacket, convolve, kernel_from_abcd
from .symplectic import (
    ScheduleError,
    abcd_from_generator,
    compose_schedule,
    load_schedule,
    sr_from_abcd,
)
from .verify import run_all
from .coherent_iwop import kernel_via_iwop

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_FOCAL_POINT = 3
EXIT_BOUNDARY_LEAK = 4
EXIT_PRECISION = 5

_CSV_BLOCK = 512


def _fmt(x: float) -> str:
    return "%.12e" % x


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)} {_fmt(z.imag)}"


def _csv_blocks(*columns):
    """CSV text of equal-length numeric arrays, ``_CSV_BLOCK`` rows per chunk.

    One newline-ended line per index, cells as ``_fmt``. Python floats
    format faster than numpy scalars; converting a block of rows at a time
    keeps only that block's floats and text alive.
    """
    row = ",".join(["%.12e"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = (c[lo:lo + _CSV_BLOCK].tolist() for c in columns)
        yield "".join([row % cells for cells in zip(*block)])


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

    None values are skipped. ``decompose`` and ``kernel`` call it in text
    and JSON mode alike, so that the error names the fields; the JSON
    encoder's allow_nan=False only backs it up.
    """
    bad = [name for name, v in named if v is not None and not cmath.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite output: {', '.join(bad)}")


def cmd_decompose(args) -> int:
    g = args.generator
    p = to_su11(g)
    f = normal_order(g)
    m = abcd_from_generator(g)
    res_u = f.unitarity_residual()
    res_s = m.det() - 1.0
    rows = [
        ("tau", p.tau), ("sigma", p.sigma), ("delta_sq", p.delta_sq),
        ("s", f.s), ("r", f.r), ("A", m.a), ("B", m.b), ("C", m.c), ("D", m.d),
        ("residual_unitarity", res_u), ("residual_symplectic", res_s),
    ]
    _require_finite(rows)
    f.require_unitary()
    m.require_symplectic()
    if args.json:
        payload = {
            "tau": {"re": p.tau.real, "im": p.tau.imag},
            "sigma": p.sigma,
            "delta_sq": p.delta_sq,
            "s": {"re": f.s.real, "im": f.s.imag},
            "r": {"re": f.r.real, "im": f.r.imag},
            "abcd": {"a": m.a, "b": m.b, "c": m.c, "d": m.d},
            "residual_unitarity": res_u,
            "residual_symplectic": res_s,
        }
        _emit(args, [_json_dump(payload)])
    else:
        _emit(args, [
            f"{name:<19} = {_fmt_complex(v) if isinstance(v, complex) else _fmt(v)}\n"
            for name, v in rows
        ])
    return EXIT_OK


def cmd_kernel(args) -> int:
    g = args.generator
    value = kernel_from_abcd(abcd_from_generator(g)).evaluate(args.q, args.Q)
    diff = None
    if args.check:
        diff = abs(value - kernel_via_iwop(g, args.q, args.Q))
    _require_finite([("kernel", value), ("check_diff", diff)])
    if args.json:
        payload = {"re": value.real, "im": value.imag}
        if diff is not None:
            payload["check_diff"] = diff
        _emit(args, [_json_dump(payload)])
    else:
        lines = [_fmt_complex(value)]
        if diff is not None:
            lines.append(f"check_diff = {_fmt(diff)}")
        _emit(args, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_evolve(args) -> int:
    schedule = load_schedule(args.schedule)
    packet = args.packet

    if schedule:
        grid = grid_evolve(schedule, args.grid0, steps=args.steps)
        state = convolve(kernel_from_abcd(compose_schedule(schedule)), packet)
        kernel_route = state.evaluate(grid.x)
    else:
        # Nothing to apply: both routes are the initial packet itself.
        grid = args.grid0
        kernel_route = packet.evaluate(grid.x)

    grid_route = grid.amplitudes
    diff = abs(kernel_route - grid_route)
    l2 = float((diff**2).sum() ** 0.5 * grid.spacing**0.5)

    _emit(args, itertools.chain(
        ["x,re_kernel_route,im_kernel_route,re_grid_route,im_grid_route,abs_diff\n"],
        _csv_blocks(grid.x, kernel_route.real, kernel_route.imag,
                    grid_route.real, grid_route.imag, diff),
        [f"l2_diff,{_fmt(l2)}\n"],
    ))
    return EXIT_OK


def cmd_compose(args) -> int:
    schedule = load_schedule(args.schedule)
    total = compose_schedule(schedule)
    f = sr_from_abcd(total)
    res = total.det() - 1.0
    if args.json:
        payload = {
            "abcd": {"a": total.a, "b": total.b, "c": total.c, "d": total.d},
            "s": {"re": f.s.real, "im": f.s.imag},
            "r": {"re": f.r.real, "im": f.r.imag},
            "residual_symplectic": res,
            "steps": len(schedule),
        }
        _emit(args, [_json_dump(payload)])
    else:
        lines = [
            f"steps               = {len(schedule)}",
            f"A                   = {_fmt(total.a)}",
            f"B                   = {_fmt(total.b)}",
            f"C                   = {_fmt(total.c)}",
            f"D                   = {_fmt(total.d)}",
            f"s                   = {_fmt_complex(f.s)}",
            f"r                   = {_fmt_complex(f.r)}",
            f"residual_symplectic = {_fmt(res)}",
        ]
        _emit(args, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_all(inject_fault=args.inject_fault)
    _emit(args, [_json_dump(summary)])
    return EXIT_OK if summary["pass"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--packet-phase", type=float, default=0.0)
    p.add_argument("--x-min", type=float, default=-40.0)
    p.add_argument("--x-max", type=float, default=40.0)
    p.add_argument("--n-points", type=int, default=4096)
    p.add_argument("--steps", type=int, default=1000,
                   help="Crank-Nicolson sub-steps per schedule entry")
    add_output(p)

    p = sub.add_parser("compose", help="compose a schedule into one ABCD matrix")
    p.add_argument("schedule", help="step-schedule file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_output(p)

    p = sub.add_parser("verify", help="run every invariant suite, JSON summary")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one check on purpose (harness self-test)")
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
            phase=args.packet_phase,
        )
        if args.steps < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _DISPATCH[args.command](args)
    except (ScheduleError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FocalPointError as exc:
        print(f"focal point: B=0 ({exc})", file=sys.stderr)
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
