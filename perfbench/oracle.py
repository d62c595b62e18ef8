"""Reference computations the output checks compare the program against.

These follow the defining formulas directly and import nothing from dplc,
so a change inside the package cannot change the reference along with the
output it is meant to check.
"""

from __future__ import annotations

import csv

import numpy as np


def read_csv(path):
    """Header names and the data rows of a CSV file, as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_csv_columns(path):
    """Header names and the float matrix of a numeric CSV file."""
    header, rows = read_csv(path)
    return header, np.array(rows, dtype=float)


def network_eval(net, z):
    """Eval-mode output of a saved network: ReLU layers, linear head, centred."""
    a = np.asarray(z, dtype=float)
    weights = [np.asarray(w, dtype=float) for w in net["weights"]]
    biases = [np.asarray(b, dtype=float) for b in net["biases"]]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return (a @ weights[-1].T + biases[-1])[:, 0] - net["center_offset"]


def model_eta(model, header, data):
    """beta'x + g(z) for every row of a dataset, from a saved model.json."""
    col = {name: k for k, name in enumerate(header)}
    x = data[:, [col[name] for name in model["columns"]["x"]]]
    z = data[:, [col[name] for name in model["columns"]["z"]]]
    beta = np.zeros(model["p"])
    for j, value in model["beta"]:
        beta[j] = value
    return x @ beta + network_eval(model["network"], z)


def harrell_c(risk, times, status, block=1024):
    """Harrell's C over pairs with T_i < T_j and an event at i; ties score 1/2.

    Evaluated a block of i at a time, so memory stays O(block * n).
    """
    risk = np.asarray(risk, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.flatnonzero(np.asarray(status) == 1.0)
    score = 0.0
    total = 0
    for lo in range(0, events.size, block):
        i = events[lo:lo + block]
        comparable = times[i, None] < times[None, :]
        total += int(comparable.sum())
        score += float((comparable & (risk[i, None] > risk[None, :])).sum())
        score += 0.5 * float((comparable & (risk[i, None] == risk[None, :])).sum())
    return score / total


def selected_ok_share(selected, truth, p):
    """Share of the p features whose selected/unselected status is right."""
    selected, truth = set(selected), set(truth)
    return 1.0 - len(selected ^ truth) / p
