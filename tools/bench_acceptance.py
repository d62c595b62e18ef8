"""Rerun the slow acceptance scenarios at several master seeds.

    python3 tools/bench_acceptance.py --side NAME=SRC [--side NAME=SRC ...]
        [--out BENCH_acceptance.json]

Each --side names a directory holding the `dplc` package (for example
`src`, or the `src/` of another revision unpacked with `git archive`).
The scenarios are the statistics of the four `slow` tests of
tests/test_acceptance.py, imported from that module so that the configs
cannot drift apart:

  null-calibration             median test C on pure-noise data
  linear-truth-desk            median test C and mean FNR (%), linear truth
  nonlinear-ordering           median test C of dplc and of the cox_scad
                               baseline on nonlinear truth, and their gap
  selection-consistency-trend  mean FNN and FPN at n = 300, 600, 1200

The tests run each at MASTER_SEED; this script runs each at MASTER_SEED
+ 0 .. SEEDS - 1, so a change that moves a PASS line can be read against
the spread of other draws.  Every side runs in a fresh process that
imports dplc from its directory and the scenarios from the working
tree's tests/.  The statistics are deterministic; the seconds each took
are recorded next to them.  The output holds, per scenario and side, the
statistics at each seed with their minimum and maximum over the seeds,
and the record of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from bench_layers import machine

SEEDS = 5
TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tests")
SCENARIOS = {"null-calibration": "null_calibration",
             "linear-truth-desk": "linear_truth_desk",
             "nonlinear-ordering": "nonlinear_ordering",
             "selection-consistency-trend": "selection_consistency_trend"}


def measure() -> dict:
    """{scenario: [{"seed", "seconds", statistics...}, one per seed]} for
    the importable dplc."""
    sys.path.insert(0, TESTS)
    import test_acceptance

    out = {}
    for name, func in SCENARIOS.items():
        out[name] = []
        for k in range(SEEDS):
            seed = test_acceptance.MASTER_SEED + k
            start = time.perf_counter()
            stat = getattr(test_acceptance, func)(seed)
            out[name].append({"seed": seed,
                              "seconds": time.perf_counter() - start, **stat})
            print("%s seed %d: %s" % (name, seed, stat), file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", default=[],
                        metavar="NAME=SRC", help="a dplc source directory")
    parser.add_argument("--out", default="BENCH_acceptance.json")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(measure(), sys.stdout)
        return 0
    sides = [spec.split("=", 1) for spec in args.side]
    if not sides or any(len(side) != 2 for side in sides):
        parser.error("give at least one --side NAME=SRC")

    runs = {}
    for name, src in sides:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            env=env, stdout=subprocess.PIPE, check=True, text=True)
        runs[name] = json.loads(child.stdout)
        print("%s done" % name, file=sys.stderr)

    rows = []
    for scenario in SCENARIOS:
        row = {"scenario": scenario}
        for name, _ in sides:
            records = runs[name][scenario]
            stats = [k for k in records[0] if k not in ("seed", "seconds")]
            row[name] = {"seeds": records}
            for k in stats:
                values = np.array([rec[k] for rec in records])
                row[name][k] = {"min": values.min(axis=0).tolist(),
                                "max": values.max(axis=0).tolist()}
            print("%-28s %-6s " % (scenario, name) + "  ".join(
                "%s %s..%s" % (k, np.round(row[name][k]["min"], 3).tolist(),
                               np.round(row[name][k]["max"], 3).tolist())
                for k in stats))
        rows.append(row)
    with open(args.out, "w") as fh:
        json.dump({"machine": machine(),
                   "settings": {"seeds": SEEDS,
                                "sides": [name for name, _ in sides]},
                   "rows": rows}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
