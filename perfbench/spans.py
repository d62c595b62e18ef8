"""Span tracer that wraps the public functions of the dplc modules from outside.

The package imports functions by name (``from .survival import grad_eta``),
so a wrapper installed only in the defining module would miss most calls.
`Tracer.install` therefore replaces every reference to a wrapped function in
every dplc module namespace, and `Tracer.remove` puts the originals back.

Each call becomes one span: name, start, end and the index of the span that
was open when it started (its parent).  Spans live in flat arrays for the
whole run and are written out once, at the end.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("cli", "simulation", "estimator", "network", "coordinate_descent",
          "scad", "survival")

# Per-cell and per-coordinate helpers whose callers are already traced.
# Wrapping them would add one span per CSV cell written (fmt_value) or
# double the spans of every coordinate visit (soft_threshold, called only by
# scad_threshold); their time stays in the caller's self time.
UNWRAPPED = {"fmt_value", "soft_threshold"}

KERNELS = ("survival.neg_log_partial_likelihood", "survival.grad_eta",
           "survival.hessian_diag", "survival.working_response")


class Tracer:
    """Records spans and a few result-derived counts for wrapped calls."""

    def __init__(self, package):
        self.package = package
        self.names = []            # span name table; spans store an index
        self.layer_of = []         # layer of each name in the table
        self.name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {"cd_sweep_cap_hits": 0, "fit_converged": 0,
                       "fit_outer_iters": 0, "csv_cells": 0,
                       "c_index_peak_bytes": 0}
        self.roots = {}            # root name -> (first, end, counts)
        self._saved = []           # (namespace dict, attribute, original)

    # -- recording -----------------------------------------------------

    def _name_id(self, name, layer):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself, with its own counts."""
        for key in self.counts:
            self.counts[key] = 0
        first = len(self.span_name)
        idx = self._open(self._name_id(name, "bench"))
        try:
            yield
        finally:
            self._close(idx)
            self.roots[name] = (first, len(self.span_name), dict(self.counts))

    def _wrap(self, fn, layer):
        qualname = layer + "." + fn.__name__
        name_id = self._name_id(qualname, layer)
        observe = _OBSERVERS.get(qualname)
        sig = inspect.signature(fn) if observe else None
        call = _with_peak_memory(fn, self.counts) \
            if qualname == "simulation.c_index" else fn
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = call(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counts, bound.arguments, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def install(self):
        """Replace each public dplc function in every module that holds it."""
        modules = [getattr(self.package, layer) for layer in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(self.package)]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if (not inspect.isfunction(fn) or name.startswith("_")
                        or name in UNWRAPPED
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(fn, layer)
                for ns in namespaces:
                    for attr, value in list(ns.items()):
                        if value is fn:
                            self._saved.append((ns, attr, fn))
                            ns[attr] = wrapper

    def remove(self):
        for ns, attr, original in reversed(self._saved):
            ns[attr] = original
        self._saved.clear()

    # -- results -------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.span_name, dtype=np.uint16),
                "parent": np.frombuffer(self.span_parent, dtype=np.int64),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def save(self, path):
        """Write every span plus the name table as one .npz file."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 **spans)

    def layer_metrics(self):
        """Per-layer metrics over the spans under the "command" root span.

        `simulation.simulate_s` also counts the "setup" root, because data
        generation is set-up work on `predict_n20k`.
        """
        s = self.arrays()
        name, parent = s["name"].astype(np.int64), s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=dur.size)
        first, end, c = self.roots["command"]
        in_cmd = np.zeros(dur.size, dtype=bool)
        in_cmd[first + 1:end] = True
        ids = {n: i for i, n in enumerate(self.names)}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        layer = np.array(self.layer_of)[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")

        def spans(*names, under=None):
            """Command spans named one of `names`, with a parent named `under`."""
            mask = in_cmd & np.isin(name, [ids.get(n, -1) for n in names])
            if under is not None:
                mask &= parent_name == ids.get(under, -1)
            return mask

        def count(mask):
            return int(mask.sum())

        def total(values, mask):
            return float(values[mask].sum())

        kernels = spans(*KERNELS)
        adam = spans("network.adam_fit")
        loss_grad = spans("network.loss_and_grads")
        cd = spans("coordinate_descent.cd_fit")
        scad = in_cmd & (layer == "scad")
        fits = spans("estimator.fit")
        c_index = spans("simulation.c_index")
        load_csv = spans("cli.load_dataset_csv")
        commands = spans(*[n for n in ids if n.startswith("cli.cmd_")])
        simulate = name == ids.get("simulation.simulate_dataset", -1)
        n_fits = count(fits)
        return {
            "survival.kernel_calls": (count(kernels), "count"),
            "survival.kernel_self_s": (total(self_t, kernels), "s"),
            "survival.risk_index_calls": (
                count(spans("survival.build_risk_index")), "count"),
            "network.adam_calls": (count(adam), "count"),
            "network.adam_steps": (count(spans("network.loss_and_grads",
                                               under="network.adam_fit")), "count"),
            "network.adam_self_s": (total(self_t, adam), "s"),
            "network.loss_grad_self_s": (total(self_t, loss_grad), "s"),
            "network.forward_calls": (count(spans("network.forward")), "count"),
            "coordinate_descent.cd_calls": (count(cd), "count"),
            "coordinate_descent.sweeps": (
                count(spans("survival.hessian_diag",
                            under="coordinate_descent.cd_fit")), "count"),
            "coordinate_descent.sweep_cap_hits": (c["cd_sweep_cap_hits"], "count"),
            "coordinate_descent.coord_visits": (
                count(spans("scad.scad_threshold",
                            under="coordinate_descent.cd_fit")), "count"),
            "coordinate_descent.self_s": (total(self_t, cd), "s"),
            "scad.calls": (count(scad & (parent_layer != "scad")), "count"),
            "scad.self_s": (total(self_t, scad), "s"),
            "estimator.fits": (n_fits, "count"),
            "estimator.converged_frac": (
                c["fit_converged"] / n_fits if n_fits else 0.0, "ratio"),
            "estimator.outer_iters": (c["fit_outer_iters"], "count"),
            "estimator.fit_self_s": (total(self_t, fits), "s"),
            "estimator.fit_s_p50": (
                float(np.median(dur[fits])) if n_fits else 0.0, "s"),
            "simulation.c_index_s": (total(dur, c_index), "s"),
            "simulation.c_index_calls": (count(c_index), "count"),
            "simulation.c_index_peak_mb": (c["c_index_peak_bytes"] / 2 ** 20, "MB"),
            "simulation.simulate_s": (total(dur, simulate), "s"),
            "cli.load_csv_s": (total(dur, load_csv), "s"),
            "cli.load_csv_cells": (c["csv_cells"], "count"),
            "cli.self_s": (total(self_t, commands), "s"),
        }


def _with_peak_memory(fn, counts):
    """Run fn under tracemalloc and keep the largest peak seen."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            if started:
                tracemalloc.stop()
            counts["c_index_peak_bytes"] = max(counts["c_index_peak_bytes"], peak)

    return measured


def _observe_cd_fit(counts, args, result):
    info = args["info"]
    if info is not None and info["sweeps"] == args["max_sweeps"]:
        counts["cd_sweep_cap_hits"] += 1


def _observe_fit(counts, args, model):
    counts["fit_converged"] += bool(model.diagnostics["converged"])
    counts["fit_outer_iters"] += model.diagnostics["outer_iters"]


def _observe_load_csv(counts, args, result):
    times, status, x, z = result[:4]
    cols = x.shape[1] + z.shape[1] + (times is not None) + (status is not None)
    counts["csv_cells"] += x.shape[0] * cols


# Counts read from a wrapped call's arguments and result, by span name.
_OBSERVERS = {"coordinate_descent.cd_fit": _observe_cd_fit,
              "estimator.fit": _observe_fit,
              "cli.load_dataset_csv": _observe_load_csv}
