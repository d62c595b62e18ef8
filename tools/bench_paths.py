"""Time the default lambda path of dplc, side by side for source trees.

    python3 tools/bench_paths.py --side NAME=SRC [--side NAME=SRC ...]
        [--out BENCH_paths.json]

At each P of SIZES (50 and 500), a side runs, for each method of the
name -> FitConfig dict {"dplc": FitConfig(seed=1), "cox_scad":
FitConfig(seed=1, arch=None)} (the baseline has no network, so g = 0),

    tune_lambda(simulate_dataset(SimConfig(seed=1, p=P), 0).dataset, cfg)

over FitConfig's default 12-value grid and records:

  wall_s          the path's wall time
  adam_s, cd_s    the part of it spent in adam_fit and in cd_fit
  cd_calls        cd_fit calls: one per chain entry (one chain for
                  cox_scad, two for dplc) and one per outer iteration of
                  each `estimator.fit`
  cd_sweeps       CD sweeps over all calls
  cd_capped       cd_fit calls that ran out of max_sweeps
  fits_converged  entries of the returned path whose `converged` is
                  true, of `fits`, the path's length
  fits_run        `estimator.fit` calls the path made: for dplc the pilot
                  and the one or two alternating fits at the picks, for
                  cox_scad none (its path is cd_fit calls only)
  lambda, selected, true_selected
                  the BIC pick: its lambda, its selected count and how
                  many of those are in the true support (selection_metrics'
                  selected_count - fpn)

The timers wrap the `adam_fit` and `cd_fit` that the estimator module
calls, and a counter wraps its `fit`, so the same script measures any
tree that has them.  tools/sides.py runs every side's whole table once in
each of ROUNDS rounds.  Times are the median (and quartiles for wall_s)
over the rounds.  The counts and the pick are deterministic; the script
fails if they differ between a side's rounds.  The output holds one row
per method and P.
"""

from __future__ import annotations

import time

import numpy as np

import sides

SIZES = (50, 500)
ROUNDS = 5
TIMES = ("wall_s", "adam_s", "cd_s")


def measure() -> dict:
    """{"method P": record} for the importable dplc, one path each."""
    from dplc import (FitConfig, SimConfig, estimator, selection_metrics,
                      simulate_dataset)

    spent = {}
    cd_calls = []
    fit_calls = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return wrapper

    def cd_fit(*args, **kwargs):
        info = kwargs.setdefault("info", {})
        beta = cd(*args, **kwargs)
        cd_calls.append((info["sweeps"], info["converged"]))
        return beta

    def fit(*args, **kwargs):
        fit_calls[0] += 1
        return fit_one(*args, **kwargs)

    cd = timed("cd_s", estimator.cd_fit)
    fit_one = estimator.fit
    estimator.adam_fit = timed("adam_s", estimator.adam_fit)
    estimator.cd_fit = cd_fit
    estimator.fit = fit

    methods = {"dplc": FitConfig(seed=1),
               "cox_scad": FitConfig(seed=1, arch=None)}
    out = {}
    for p in SIZES:
        data = simulate_dataset(SimConfig(seed=1, p=p), 0)
        for method, cfg in methods.items():
            spent.update(adam_s=0.0, cd_s=0.0)
            cd_calls.clear()
            fit_calls[0] = 0
            start = time.perf_counter()
            best, path = estimator.tune_lambda(data.dataset, cfg)
            wall = time.perf_counter() - start
            sel = selection_metrics(best.support, data.support0, p)
            out["%s %d" % (method, p)] = {
                "wall_s": wall, "adam_s": spent["adam_s"],
                "cd_s": spent["cd_s"],
                "cd_calls": len(cd_calls),
                "cd_sweeps": sum(s for s, _ in cd_calls),
                "cd_capped": sum(not c for _, c in cd_calls),
                "fits": len(path),
                "fits_run": fit_calls[0],
                "fits_converged": sum(bool(m.diagnostics["converged"])
                                      for m in path),
                "lambda": best.lam, "selected": best.n_selected,
                "true_selected": sel.selected_count - sel.fpn,
            }
    return out


def rows(runs) -> list:
    """One row per method and P, in measure()'s order, from {side:
    [measure() per round]}."""
    out = []
    for key in next(iter(runs.values()))[0]:
        method, p = key.split()
        row = {"method": method, "p": int(p)}
        for name, side_runs in runs.items():
            records = [run[key] for run in side_runs]
            counts = [{k: v for k, v in rec.items() if k not in TIMES}
                      for rec in records]
            if any(c != counts[0] for c in counts):
                raise SystemExit("%s %s: counts differ between rounds"
                                 % (name, key))
            times = {k: [rec[k] for rec in records] for k in TIMES}
            q1, med, q3 = np.percentile(times["wall_s"], [25, 50, 75])
            row[name] = {"wall_s": round(med, 3),
                         "wall_s_q1": round(q1, 3),
                         "wall_s_q3": round(q3, 3),
                         "adam_s": round(np.median(times["adam_s"]), 3),
                         "cd_s": round(np.median(times["cd_s"]), 3),
                         **counts[0]}
        out.append(row)
        print("%-8s p=%-4s " % (method, p) + "  ".join(
            "%s %.2f s (adam %.2f, cd %.2f) sweeps %d capped %d "
            "converged %d/%d run %d pick lambda=%g %d sel %d true"
            % (name, row[name]["wall_s"], row[name]["adam_s"],
               row[name]["cd_s"], row[name]["cd_sweeps"],
               row[name]["cd_capped"], row[name]["fits_converged"],
               row[name]["fits"], row[name]["fits_run"],
               row[name]["lambda"],
               row[name]["selected"], row[name]["true_selected"])
            for name in runs))
    return out


if __name__ == "__main__":
    raise SystemExit(sides.main(
        __doc__, __file__, measure, rows, out="BENCH_paths.json",
        rounds=ROUNDS, settings={"rounds": ROUNDS}))
