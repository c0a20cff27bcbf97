"""Accuracy sweep of the grid oracle over the evolve benchmark's schedules.

Builds the 80 schedules and packets of the ``evolve`` benchmark workload
(``perfbench/workloads.py`` ``Evolve``, seeds 1-10, read only) and runs
each through the two routes that ``quadprop evolve`` prints, on the CLI's
default grid and ``--steps``: the grid oracle, compared with the
convolution of the composed kernel with the packet. Past a focal point
that kernel has the wrong sign
(ROADMAP item 1): the closed form is taken times (-1)^n, n the schedule's
focal crossings as the workload counts them. Prints the median and the
largest L2 error; exits 1 if any error exceeds ``BOUND`` or is not finite.

    PYTHONPATH=src python tests/sweep_grid_accuracy.py

About 1.5 s on one core.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import Evolve  # noqa: E402

from quadprop import cli  # noqa: E402

SEEDS = range(1, 11)
BOUND = 1e-6  # largest L2 error allowed on any schedule


def main() -> int:
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workload = Evolve(seed, tmp)
            for op, (argv, crossings) in enumerate(zip(workload.argv, workload.crossings)):
                # the CLI's own parsing builds the packet and the default grid,
                # and its own code runs both routes
                args = cli.build_parser().parse_args(argv)
                cli._prepare(args)
                state, grid = cli._evolve_routes(args)
                l2 = grid.distance((-1) ** crossings * state.evaluate(grid.x))
                errors.append((l2, seed, op, crossings))
    values = np.array([e[0] for e in errors])
    bad = [e for e in errors if not e[0] <= BOUND]
    print(f"{values.size} schedules: median {np.median(values):.3e}, "
          f"max {values.max():.3e}, {len(bad)} above {BOUND:.0e}")
    for l2, seed, op, crossings in bad[:10]:
        print(f"  seed {seed} op {op} ({crossings} focal crossings): {l2:.3e}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
