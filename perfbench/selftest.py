#!/usr/bin/env python3
"""Self-test of the benchmark's exact counts and metric names.

For each workload, runs the traced benchmark twice with the same seed and
requires ``attempted``, ``failed`` and every count metric (calls, errors,
sub-steps, points x sub-steps) to repeat exactly, and the printed metric
names and units to match the ``per_layer`` list of ``BENCHMARK.json``.
Exits 1 on any mismatch.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_result(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+",
                        default=["verify", "evolve", "cli", "closed_form"])
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    ok = True
    for workload in args.workload:
        first_result = traced_result(workload, args.seed)
        second_result = traced_result(workload, args.seed)
        for key in ("attempted", "failed"):
            if first_result[key] != second_result[key]:
                ok = False
                print(f"{workload}: {key} {first_result[key]} != {second_result[key]}")
        first, second = first_result["metrics"], second_result["metrics"]
        units = {k: v["unit"] for k, v in first.items()}
        if units != declared:
            ok = False
            print(f"{workload}: metric names or units differ from BENCHMARK.json")
        counts = [k for k, unit in units.items() if unit == "count"]
        differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
        nonzero = sum(1 for k in counts if first[k]["value"])
        if differ:
            ok = False
            for k in differ:
                print(f"{workload}: {k} {first[k]['value']} != {second[k]['value']}")
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} counts repeat exactly "
              f"({nonzero} nonzero) at seed {args.seed}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
