"""The workloads: how each builds its inputs, what it times, and how it
checks the program's outputs.

Every workload drives the user-facing commands through `dplc.cli.main`.
Inputs come only from the workload seed; the set-up also goes through the
CLI (`dplc simulate`, and `dplc fit` for the scoring model), so the inputs
are exactly what a user would have on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle


@dataclass
class Outcome:
    """What one timed command did, as judged by the output checks."""

    failed: int              # operations that failed without a check failing
    c_index: float = 0.0
    selection_acc: float = 0.0
    problems: list = field(default_factory=list)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class ExperimentP50:
    """`dplc benchmark` at the default run config, baseline on, one thread.

    Six one-replicate commands rather than one six-replicate command: the
    rerun that checks determinism then costs one replicate, and wall_s is a
    median over seven commands instead of two.
    """

    name = "experiment_p50"
    draws = 6                # experiment seeds per run
    replicates = 1           # simulated datasets per command
    methods = ("dplc", "cox_scad")
    ops = replicates * len(methods)   # one per replicate x method

    def setup(self, cli, d, seed):
        _write_json(os.path.join(d, "config.json"),
                    {"seed": seed, "sim": {"replicates": self.replicates}})

    def argv(self, d, out, seed):
        return ["benchmark", "--config", os.path.join(d, "config.json"),
                "--out", out, "--threads", "1"]

    def check(self, d, out, stdout):
        header, rows = oracle.read_csv(os.path.join(out, "replicates.csv"))
        col = {name: k for k, name in enumerate(header)}
        problems = []
        errors = [r for r in rows if r[col["error"]]]
        want = [(str(rep), m) for rep in range(self.replicates)
                for m in self.methods]
        got = [(r[col["replicate"]], r[col["method"]]) for r in rows]
        if got != want:
            problems.append("replicates.csv rows %s, expected %s" % (got, want))
        report = _read_json(os.path.join(out, "summary.json"))
        summary, p = report["summary"], report["sim"]["p"]
        for r in rows:
            # selected = false positives + true support - false negatives
            if not r[col["error"]] and int(r[col["selected_count"]]) != \
                    int(r[col["fpn"]]) + report["sim"]["s_beta"] - int(r[col["fnn"]]):
                problems.append("%s: selection counts disagree" % r[col["method"]])
        for m in self.methods:
            vals = [float(r[col["c_index_test"]]) for r in rows
                    if r[col["method"]] == m and not r[col["error"]]]
            entry = summary.get(m, {})
            if entry.get("replicates_ok") != len(vals):
                problems.append("%s: summary replicates_ok disagrees" % m)
            if vals and not np.isclose(entry["c_index"]["median"],
                                       np.median(vals), rtol=0, atol=1e-12):
                problems.append("%s: summary median c_index disagrees" % m)
            if not all(0.0 <= v <= 1.0 for v in vals):
                problems.append("%s: c_index outside [0, 1]" % m)
        dplc_rows = [r for r in rows
                     if r[col["method"]] == "dplc" and not r[col["error"]]]
        if not dplc_rows:
            return Outcome(0, problems=problems + ["no dplc rows"])
        wrong = [int(r[col["fpn"]]) + int(r[col["fnn"]]) for r in dplc_rows]
        return Outcome(len(errors), c_index=summary["dplc"]["c_index"]["median"],
                       selection_acc=1.0 - float(np.mean(wrong)) / p,
                       problems=problems)


class PredictN20k:
    """`dplc predict` on 20 000 rows with outcomes, scored by C-index.

    The scoring model is fitted in set-up on 300 further rows of the same
    simulated draw: a model from another draw has a different true beta
    and scores near 0.5.
    """

    name = "predict_n20k"
    draws = 1
    ops = 1
    n_train = 300
    n_score = 20000
    # The low end of the default grid, where BIC picks on this design; the
    # full grid would triple a set-up that runs three times per run.
    scoring_grid = "0.05,0.075996,0.115506,0.17556"

    def setup(self, cli, d, seed):
        _write_json(os.path.join(d, "sim.json"),
                    {"seed": seed, "sim": {"n": self.n_train + self.n_score}})
        _run_setup(cli, ["simulate", "--config", os.path.join(d, "sim.json"),
                         "--out", d])
        with open(os.path.join(d, "dataset.csv")) as fh:
            lines = fh.readlines()
        with open(os.path.join(d, "train.csv"), "w") as fh:
            fh.writelines(lines[:1 + self.n_train])
        with open(os.path.join(d, "score.csv"), "w") as fh:
            fh.writelines(lines[:1] + lines[1 + self.n_train:])
        os.remove(os.path.join(d, "dataset.csv"))
        _run_setup(cli, ["fit", "--data", os.path.join(d, "train.csv"),
                         "--out", os.path.join(d, "model"), "--seed", str(seed),
                         "--lambda-grid", self.scoring_grid])

    def argv(self, d, out, seed):
        return ["predict", "--model", os.path.join(d, "model", "model.json"),
                "--data", os.path.join(d, "score.csv"),
                "--out", os.path.join(out, "predictions.csv")]

    def check(self, d, out, stdout):
        problems = []
        model = _read_json(os.path.join(d, "model", "model.json"))
        header, data = oracle.read_csv_columns(os.path.join(d, "score.csv"))
        col = {name: k for k, name in enumerate(header)}
        pred_header, pred = oracle.read_csv_columns(
            os.path.join(out, "predictions.csv"))
        if pred_header != ["row", "eta"] or pred.shape != (self.n_score, 2) \
                or not np.array_equal(pred[:, 0], np.arange(self.n_score)):
            return Outcome(0, problems=["predictions.csv has the wrong shape"])
        eta_ref = oracle.model_eta(model, header, data)
        if not np.allclose(pred[:, 1], eta_ref, rtol=1e-9, atol=1e-9):
            problems.append("predictions differ from the reference eta")
        printed = [line for line in stdout.splitlines()
                   if line.startswith("c_index=")]
        c_ref = oracle.harrell_c(pred[:, 1], data[:, col["time"]],
                                 data[:, col["status"]])
        c_prog = float(printed[0].split("=", 1)[1]) if printed else 0.0
        if not np.isclose(c_prog, c_ref, rtol=0, atol=1e-9):
            problems.append("printed c_index %r, reference %r" % (c_prog, c_ref))
        truth = _read_json(os.path.join(d, "truth.json"))
        acc = oracle.selected_ok_share([j for j, _ in model["beta"]],
                                       truth["support"], model["p"])
        return Outcome(0, c_index=c_prog,
                       selection_acc=acc, problems=problems)


def _run_setup(cli, argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError("set-up command %s exited with %d" % (argv[0], code))


WORKLOADS = {w.name: w for w in (ExperimentP50(), PredictN20k())}
