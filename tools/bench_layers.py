"""Time the per-layer operations of dplc, side by side for source trees.

    python3 tools/bench_layers.py --side NAME=SRC [--side NAME=SRC ...]
        [--out BENCH_layers.json]

Times seven operations on `simulate_dataset(SimConfig(n=N, seed=1), 0)` at
each N of SIZES (300, 3 000 and 30 000), with the default p = 50 and
r = 8:

  cox_terms       one Cox kernel pass at the true linear predictor
  train_pass      one training pass of the default (8, 8) network, dropout 0.3,
                  set up and run as one adam_fit step would be
  adam_step       adam_fit with the default 20 inner steps and step size
                  0.01, per step
  cd_sweep        cd_fit at lambda 0.1 capped at one sweep, warm-started
                  at its own fit: one kernel pass, the covariances, the
                  curvature diagonal and the coordinate loop
  cd_call         cd_fit at lambda 0.1 run to convergence, warm-started at
                  the lambda 0.05 fit, as one step of a lambda path: its
                  sweeps and the Newton steps between them; the row also
                  gives the sweeps the call runs
  newton_step     one Newton step of cd_fit on the settled face of the lambda
                  0.1 fit, given the kernel pass at that fit: the Hessian
                  block, its Cholesky test and solve, and the trial pass
  c_index         Harrell's C of the true linear predictor

tools/sides.py runs every side once in each of ROUNDS rounds.  Within a
process each operation is warmed up and then run in REPEATS blocks of
calls lasting about BLOCK_S seconds.  Rows give, per side, the median and
quartiles of the time per call in microseconds over all blocks of all
rounds.
"""

from __future__ import annotations

import time

import numpy as np

import sides

OPS = ("cox_terms", "train_pass", "adam_step", "cd_sweep", "cd_call",
       "newton_step", "c_index")
SIZES = (300, 3000, 30000)
ROUNDS = 8
REPEATS = 5
BLOCK_S = 0.1


def per_call_us(fn) -> list:
    """Microseconds per call of fn, one value per block of calls."""
    fn()
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < BLOCK_S / 4 or calls < 1:
        fn()
        calls += 1
    per_block = max(1, round(calls * BLOCK_S / (time.perf_counter() - start)))
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(per_block):
            fn()
        out.append((time.perf_counter() - start) / per_block * 1e6)
    return out


def newton_step(ds, g_vals, beta, lam):
    """One call of cd_fit's Newton step on beta's face, given the kernel
    pass at beta, under cd_fit's floating-point settings."""
    from dplc import coordinate_descent, survival

    X, scale = ds.standardized
    b = beta * scale
    active = np.flatnonzero(b)
    step = coordinate_descent._newton_step
    with np.errstate(all="ignore"):
        terms = survival._loss_terms(X @ b + g_vals, ds)
    args = (ds, X, g_vals, b, terms, active, lam)

    def call():
        with np.errstate(all="ignore"):
            return step(*args)

    return call


def operations(n: int) -> tuple:
    """The timed operations on one simulated dataset of n rows, each with
    the number of steps one call makes, and the info dict that every
    cd_call call fills."""
    from dplc import (NetworkArch, SimConfig, adam_fit, c_index, cd_fit,
                      cox_terms, init_network, simulate_dataset)
    from dplc.network import _TrainPass

    data = simulate_dataset(SimConfig(n=n, seed=1), 0)
    ds = data.dataset
    eta = ds.x @ data.beta0
    net = init_network(NetworkArch(), ds.r, seed=1)
    rng = np.random.default_rng(1)
    moments = {}
    steps, gamma, lam = 20, 0.01, 0.1
    g_vals = np.zeros(ds.n)
    beta_warm = cd_fit(ds, g_vals, None, lam)
    beta_low = cd_fit(ds, g_vals, None, 0.05)
    cd_info = {}
    return {
        "cox_terms": (lambda: cox_terms(eta, ds), 1),
        "train_pass": (lambda: _TrainPass(net, ds, data.beta0, rng)(), 1),
        "adam_step": (lambda: adam_fit(net, ds, data.beta0, gamma,
                                       inner_steps=steps, rng=rng,
                                       moments=moments), steps),
        "cd_sweep": (lambda: cd_fit(ds, g_vals, beta_warm, lam,
                                    max_sweeps=1), 1),
        "cd_call": (lambda: cd_fit(ds, g_vals, beta_low, lam,
                                   info=cd_info), 1),
        "newton_step": (newton_step(ds, g_vals, beta_warm, lam), 1),
        "c_index": (lambda: c_index(eta, ds.times, ds.status), 1),
    }, cd_info


def measure() -> dict:
    """{"op n": [us per call, one per block]} for the importable dplc, and
    {"cd_call n sweeps": sweeps}."""
    out = {}
    for n in SIZES:
        ops, cd_info = operations(n)
        for op, (fn, steps) in ops.items():
            out["%s %d" % (op, n)] = [us / steps for us in per_call_us(fn)]
        if not cd_info["converged"]:
            raise SystemExit("cd_call at n=%d did not converge" % n)
        out["cd_call %d sweeps" % n] = cd_info["sweeps"]
    return out


def rows(runs) -> list:
    """One row per op and n from {side: [measure() per round]}."""
    out = []
    for n in SIZES:
        for op in OPS:
            row = {"op": op, "n": n}
            for name, side_runs in runs.items():
                q1, med, q3 = np.percentile(
                    [us for run in side_runs for us in run["%s %d" % (op, n)]],
                    [25, 50, 75])
                row[name] = {"us_median": round(med, 2),
                             "us_q1": round(q1, 2), "us_q3": round(q3, 2)}
                if op == "cd_call":
                    sweeps = {run["cd_call %d sweeps" % n] for run in side_runs}
                    if len(sweeps) != 1:
                        raise SystemExit("%s cd_call n=%d: sweeps differ "
                                         "between rounds" % (name, n))
                    row[name]["sweeps"] = sweeps.pop()
            out.append(row)
            print("%-15s n=%-6d " % (op, n) + "  ".join(
                "%s %.1f [%.1f, %.1f]%s" % (
                    name, row[name]["us_median"], row[name]["us_q1"],
                    row[name]["us_q3"],
                    " sweeps %d" % row[name]["sweeps"]
                    if "sweeps" in row[name] else "")
                for name in runs))
    return out


if __name__ == "__main__":
    raise SystemExit(sides.main(
        __doc__, __file__, measure, rows, out="BENCH_layers.json",
        rounds=ROUNDS, settings={"rounds": ROUNDS, "repeats": REPEATS,
                                 "block_s": BLOCK_S}))
