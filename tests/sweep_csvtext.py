"""Exactness sweep of the evolve CSV formatter, too large for tier-1.

Renders +-64-ulp neighbourhoods of d * 10^k for every exponent k (the
digits d of ``test_csvtext.BOUNDARY_DIGITS``), 10^5 near-ties and 10^7
(``RANDOM``) random 64-bit patterns through ``quadprop._csvtext.csv_blocks`` and
compares each cell with ``'%.12e' % x``. Prints the seed first; exits 1
after printing the first mismatches.

    PYTHONPATH=src python tests/sweep_csvtext.py [--seed N]

About 15 s on one core.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from test_csvtext import boundary_values, mismatches, near_ties, random_bits

RANDOM = 10**7  # random bit patterns to check
CHUNK = 2 * 10**5  # values rendered at a time, to keep memory small


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: drawn fresh and printed)")
    args = parser.parse_args(argv)
    seed = np.random.SeedSequence().entropy if args.seed is None else args.seed
    print(f"seed {seed}", flush=True)
    rng = np.random.default_rng(seed)

    def sweep(name, chunks):
        count, bad = 0, []
        for values in chunks:
            count += values.size
            bad += mismatches(values)
        print(f"{name}: {count} values, {len(bad)} mismatches", flush=True)
        for value, got, want in bad[:10]:
            print(f"  {value!r}: {got} != {want}")
        return len(bad)

    def split(values):
        return (values[lo:lo + CHUNK] for lo in range(0, values.size, CHUNK))

    failed = sweep("boundaries +-64 ulps", split(boundary_values(64)))
    failed += sweep("near ties", split(near_ties(rng, 10**5)))
    failed += sweep("random bit patterns", (random_bits(rng, min(CHUNK, RANDOM - lo))
                                            for lo in range(0, RANDOM, CHUNK)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
