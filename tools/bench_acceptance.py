"""Rerun the slow acceptance scenarios at several master seeds.

    python3 tools/bench_acceptance.py --side NAME=SRC [--side NAME=SRC ...]
        [--out BENCH_acceptance.json]

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
the spread of other draws.  tools/sides.py runs every side once; its
process imports the scenarios from the working tree's tests/.  The
statistics are deterministic; the seconds each took are recorded next to
them.  The output holds, per scenario and side, the statistics at each
seed with their minimum and maximum over the seeds.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import sides

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


def rows(runs) -> list:
    """One row per scenario from {side: [measure()]}."""
    out = []
    for scenario in SCENARIOS:
        row = {"scenario": scenario}
        for name, (run,) in runs.items():
            records = run[scenario]
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
        out.append(row)
    return out


if __name__ == "__main__":
    raise SystemExit(sides.main(
        __doc__, __file__, measure, rows, out="BENCH_acceptance.json",
        rounds=1, settings={"seeds": SEEDS}))
