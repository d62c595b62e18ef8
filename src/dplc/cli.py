"""Command-line interface: fit, predict, simulate, and benchmark.

Datasets are CSV files with a header row: required outcome columns `time`
(positive real) and `status` (0/1), penalized covariates prefixed `x_`,
and network covariates prefixed `z_`.  Missing or malformed cells are hard
errors with line/column diagnostics; nothing is imputed or coerced.

Run configuration is a JSON file holding the top-level "seed" and the
"sim" and "fit" sections, which take the fields of SimConfig and FitConfig
by name (FitConfig's "arch" nests the same way; "fit" also holds the BIC
"lambda_grid", the only source of the penalty strength).  Every field is
optional and defaults to the record's own default; unknown keys are
rejected, integer fields need JSON integers and number fields finite
numbers.  Architecture search runs only on `fit --arch-grid`, and
`benchmark` always fits the penalized Cox baseline next to the full model.
All randomness flows from one seed, so repeated invocations produce
byte-identical outputs.

Exit codes: 0 success, 2 input/schema error or an output that cannot be
written, 3 numerical failure.
The DPLC_LOG environment variable (DEBUG/INFO/WARNING) controls logging.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import NumericalDivergence
from .estimator import (FitConfig, model_from_dict, model_to_dict,
                        predict_eta, tune_architecture, tune_lambda)
from .network import _is_finite_number, _is_int
from .simulation import (REPLICATE_FIELDS, SELECTION_FIELDS, SimConfig,
                         c_index, fmt_value, run_experiment, simulate_dataset)
from .survival import SurvivalDataset


class CliInputError(Exception):
    """Bad input file, schema violation, or inconsistent configuration."""


# The run-config layout.  "sim" and "fit" take the fields of SimConfig and
# FitConfig, whose defaults are the only copy; the seed is set once at the
# top level, and fit_g belongs to the benchmark's baseline method.
CONFIG_DEFAULTS = {
    "seed": FitConfig().seed,
    "sim": {k: v for k, v in asdict(SimConfig()).items() if k != "seed"},
    "fit": {k: v for k, v in asdict(FitConfig()).items()
            if k not in ("seed", "fit_g")},
}

# The grids of --arch-grid by name: the tune_architecture argument each
# sets, its value type, and the grid searched when the flag leaves it out.
ARCH_GRIDS = {"depths": ("depth_grid", int, [1, 2]),
              "widths": ("width_grid", int, [2, 4, 8]),
              "dropout": ("dropout_grid", float, [0.3, 0.5]),
              "lr": ("lr_grid", float, [0.005, 0.02])}


def _checked(base, value, where):
    """`value` if it has the type of its default `base`.

    An object may hold only keys of its default, checked in the order
    given, and keeps only those; integer settings need JSON integers;
    float settings take any finite number and return it as a float; lists
    are checked element by element against the type of the default's
    first element.  `where` names `value` in errors ("" for the root).
    """
    if isinstance(base, dict):
        if not isinstance(value, dict):
            raise CliInputError("config key %s must be an object" % where)
        checked = {}
        for key, item in value.items():
            name = where + "." + key if where else key
            if key not in base:
                raise CliInputError("unknown config key: %s" % name)
            checked[key] = _checked(base[key], item, name)
        return checked
    if isinstance(base, (list, tuple)):
        if not isinstance(value, list):
            raise CliInputError("config key %s must be a list" % where)
        return [_checked(base[0], v, "%s[%d]" % (where, k))
                for k, v in enumerate(value)]
    if isinstance(base, int):
        if not _is_int(value):
            raise CliInputError("config key %s must be an integer" % where)
    elif isinstance(base, float):
        if not _is_finite_number(value):
            raise CliInputError("config key %s must be a finite number"
                                % where)
        return float(value)
    elif not isinstance(value, str):
        raise CliInputError("config key %s must be a string" % where)
    return value


def _read_json(path, what):
    """The JSON document in the UTF-8 file `path`; the CliInputError of a
    file that cannot be read or parsed names it as `what` ("config" or
    "model") and gives the path, or the line and column of a JSON error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError("cannot read %s: %s" % (what, exc))
    except UnicodeDecodeError as exc:
        raise CliInputError("%s %s: not UTF-8 text (%s)"
                            % (what, path, exc.reason))
    except json.JSONDecodeError as exc:
        raise CliInputError("%s %s line %d column %d: %s"
                            % (what, path, exc.lineno, exc.colno, exc.msg))


def _record(default, values):
    """`default` with the config's values set, nested records included."""
    return replace(default, **{
        key: _record(getattr(default, key), value)
        if isinstance(value, dict) else value
        for key, value in values.items()})


def run_records(path=None, seed=None, lambda_grid=None):
    """The (SimConfig, FitConfig) of the run-config JSON file at `path`,
    or of the defaults when `path` is None.

    The file is checked against CONFIG_DEFAULTS, and the records' own
    defaults fill the gaps.  The values of a --lambda-grid flag's text
    `lambda_grid`, when given, replace fit.lambda_grid, where FitConfig
    checks them as it checks the file's; `seed`, when given, replaces the
    config's seed in both records.
    """
    config = {} if path is None else _read_json(path, "config")
    if not isinstance(config, dict):
        raise CliInputError("config root must be a JSON object")
    config = _checked(CONFIG_DEFAULTS, config, "")
    if lambda_grid is not None:
        try:
            config.setdefault("fit", {})["lambda_grid"] = [
                float(tok) for tok in lambda_grid.split(",") if tok.strip()]
        except ValueError:
            raise CliInputError("--lambda-grid must be comma-separated numbers")
    if seed is None:
        seed = config.get("seed", CONFIG_DEFAULTS["seed"])
    records = []
    for name, record in (("sim", SimConfig), ("fit", FitConfig)):
        try:
            records.append(_record(record(seed=seed), config.get(name, {})))
        except ValueError as exc:
            raise CliInputError("invalid %s config: %s" % (name, exc))
    return tuple(records)


# Rows per block that the CSV writers write and the loader's fallback
# converts: enough to amortise a call, few enough to keep a block small.
WRITE_BLOCK_ROWS = 1024


def load_dataset_csv(path, require_outcome: bool = True):
    """Parse a dataset CSV into arrays plus the covariate column names.

    Returns (times, status, x, z, x_names, z_names); times/status are None
    when absent and not required.  The file is read as UTF-8, a leading
    byte-order mark dropped.  The data rows go through numpy's C parser
    (`_read_floats`); a file that parser cannot take whole is read again
    a block of rows at a time (`_read_cells`), which accepts every cell
    Python's float() does and names the first bad one.  Both give the
    same array.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliInputError("cannot read data: %s" % exc)
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliInputError("%s: empty file" % path)
            names = [h.strip() for h in header]
            if len(set(names)) != len(names):
                raise CliInputError("%s: duplicate column names" % path)
            col_of = {name: k for k, name in enumerate(names)}
            x_names = [n for n in names if n.startswith("x_")]
            z_names = [n for n in names if n.startswith("z_")]
            extras = [n for n in names if n not in ("time", "status")
                      and not n.startswith(("x_", "z_"))]
            if extras:
                raise CliInputError("%s: unrecognized columns: %s"
                                    % (path, ", ".join(extras)))
            for required in ("time", "status") if require_outcome else ():
                if required not in col_of:
                    raise CliInputError("%s: missing required column '%s'"
                                        % (path, required))
            if not x_names or not z_names:
                raise CliInputError(
                    "%s: need at least one x_ and one z_ column" % path)

            data = None
            if fh.seekable():  # the fallback reads the rows a second time
                data = _read_floats(fh, len(names))
                if data is None:
                    fh.seek(0)
                    next(reader)
            if data is None:
                data = _read_cells(path, names, reader)
    except UnicodeDecodeError as exc:
        raise CliInputError("%s: not UTF-8 text (%s)" % (path, exc.reason))

    times = status = None
    if "time" in col_of:
        times = data[:, col_of["time"]]
        if np.any(times <= 0):
            raise CliInputError("%s: column 'time' must be > 0" % path)
    if "status" in col_of:
        status = data[:, col_of["status"]]
        if not np.all(np.isin(status, (0.0, 1.0))):
            raise CliInputError("%s: column 'status' must be 0 or 1" % path)
    x = data[:, [col_of[n] for n in x_names]]
    z = data[:, [col_of[n] for n in z_names]]
    return times, status, x, z, x_names, z_names


def _read_floats(fh, width):
    """The rest of `fh` as a float array with one row per line, parsed by
    numpy's C reader; None when the file needs `_read_cells` instead.

    That is the case when the reader rejects a cell (it takes no
    underscores, quotes or non-ASCII digits, which float() accepts), when
    a value is not finite, when a row is not `width` cells wide, and when
    a line is blank or there is none (the reader would skip the line or
    warn, where a blank line is an error).
    """
    lines = 0

    def data_lines():
        nonlocal lines
        for line in fh:
            if line in ("\n", "\r\n", "\r"):
                raise ValueError("blank line")
            lines += 1
            yield line
        if not lines:
            raise ValueError("no data rows")

    try:
        data = np.loadtxt(data_lines(), dtype=float, delimiter=",",
                          comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (lines, width) or not np.isfinite(data).all():
        return None
    return data


def _read_cells(path, names, reader):
    """The data rows of `reader` as a float array, converted a block of
    WRITE_BLOCK_ROWS rows at a time by one numpy call, which takes a cell
    as float() does.  A block that fails it, is not `len(names)` cells
    wide or holds a non-finite value is read again by `_scan_cells`, which
    names the first bad row or cell in file order."""
    blocks, lineno = [], 2  # the file line of the block's first row
    while rows := list(itertools.islice(reader, WRITE_BLOCK_ROWS)):
        try:
            block = np.array(rows, dtype=float)
        except ValueError:
            block = None
        if block is None or block.shape != (len(rows), len(names)) \
                or not np.isfinite(block).all():
            block = _scan_cells(path, names, rows, lineno)
        blocks.append(block)
        lineno += len(rows)
    if not blocks:
        raise CliInputError("%s: no data rows" % path)
    return np.concatenate(blocks)


def _scan_cells(path, names, rows, lineno):
    """rows, the first of them at file line lineno, as a float array read
    cell by cell with float(); a CliInputError names the first row or cell
    that is not one of `len(names)` finite numbers."""
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) != len(names):
            raise CliInputError("%s line %d: expected %d cells, got %d"
                                % (path, lineno, len(names), len(row)))
        for name, cell in zip(names, row):
            cell = cell.strip()
            where = "%s line %d, column '%s'" % (path, lineno, name)
            if cell == "":
                raise CliInputError(where + ": missing value")
            try:
                value = float(cell)
            except ValueError:
                raise CliInputError(where + ": not a number: %r" % cell)
            if not math.isfinite(value):
                raise CliInputError(where + ": non-finite value")
    return np.array([list(map(float, row)) for row in rows])


def _parse_arch_grid(text: str) -> dict:
    """Parse 'depths=1,2;widths=4,8;dropout=0.3;lr=0.01' into the grid
    arguments of tune_architecture; a grid left out is its ARCH_GRIDS
    default."""
    grids = {key: default for key, _, default in ARCH_GRIDS.values()}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliInputError("--arch-grid parts must look like name=v1,v2")
        name, _, values = part.partition("=")
        name = name.strip()
        if name not in ARCH_GRIDS:
            raise CliInputError("--arch-grid: unknown grid '%s'" % name)
        key, cast, _ = ARCH_GRIDS[name]
        try:
            grids[key] = [cast(tok) for tok in values.split(",") if tok.strip()]
        except ValueError:
            raise CliInputError("--arch-grid: bad values for '%s'" % name)
        if not grids[key]:
            raise CliInputError("--arch-grid: empty grid for '%s'" % name)
    return grids


def _check_out_dir(path):
    """Raise CliInputError before any work if `os.makedirs(path)` would
    fail: path must not be an existing non-directory, and its nearest
    existing ancestor must be a directory.  Nothing is created."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise CliInputError("--out %s: %s is not a directory" % (path, probe))


def _check_out_file(path):
    """Raise CliInputError before any work if the file `path` cannot be
    created: its parent must be an existing directory and path must not
    be a directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise CliInputError("--out %s: %s is not a directory" % (path, parent))
    if os.path.isdir(path):
        raise CliInputError("--out %s is a directory" % path)


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_selection_table(path, beta, support, x_names):
    """Selected features with coefficients and hazard ratios exp(beta);
    a ratio past the float range is written as inf."""
    order = sorted(support, key=lambda j: (-abs(beta[j]), j))
    with open(path, "w") as fh:
        fh.write("feature\tbeta\thazard_ratio\n")
        for j in order:
            try:
                ratio = math.exp(beta[j])
            except OverflowError:
                ratio = math.inf
            fh.write("%s\t%.6g\t%.4f\n" % (x_names[j], beta[j], ratio))


def _write_rows(fh, line, columns, rows):
    """Write `line % row` for each row number in `rows`, a row being
    `columns` set side by side (a 1-D array is one column, a 2-D array
    several), gathered and written a block of rows at a time.  Rows come
    from `.tolist()`, so `%r` writes each value's float repr, the text
    `fmt_value` gives; a cell like that never needs CSV quoting, so the
    bytes are those of csv.writer given `line`'s CRLF."""
    for start in range(0, len(rows), WRITE_BLOCK_ROWS):
        take = rows[start:start + WRITE_BLOCK_ROWS]
        block = np.column_stack([c[take] for c in columns])
        fh.write("".join([line % tuple(row) for row in block.tolist()]))


def write_dataset_csv(path, ds):
    """A SurvivalDataset as the dataset CSV that `load_dataset_csv` reads:
    `time`, `status` (an integer), then `x_1..x_p` and `z_1..z_r`, the
    rows in the order the dataset was given (`ds.rows`)."""
    stored = np.argsort(ds.rows)  # the stored place of each given row
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["time", "status"]
                                + ["x_%d" % (j + 1) for j in range(ds.p)]
                                + ["z_%d" % (k + 1) for k in range(ds.r)])
        _write_rows(fh, "%r,%d" + ",%r" * (ds.p + ds.r) + "\r\n",
                    [ds.times, ds.status, ds.x, ds.z], stored)


def write_predictions_csv(path, eta):
    """`predictions.csv`: the row number and linear predictor per row."""
    rows = np.arange(eta.size)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["row", "eta"])
        _write_rows(fh, "%d,%r\r\n", [rows, eta], rows)


def cmd_fit(args) -> int:
    _check_out_dir(args.out)
    _, cfg = run_records(args.config, args.seed, args.lambda_grid)
    times, status, x, z, x_names, z_names = load_dataset_csv(args.data)
    try:
        dataset = SurvivalDataset(times=times, status=status, x=x, z=z)
    except ValueError as exc:
        raise CliInputError("%s: %s" % (args.data, exc))

    grids = _parse_arch_grid(args.arch_grid) if args.arch_grid else None
    if grids is not None:
        try:
            # the grid is checked in full before the first fit
            cfg, _ = tune_architecture(dataset, cfg=cfg, **grids)
        except ValueError as exc:
            raise CliInputError("architecture grid: %s" % exc)
    model, path = tune_lambda(dataset, cfg)
    eta_train = predict_eta(model, dataset.x, dataset.z)
    try:
        c_train = c_index(eta_train, dataset.times, dataset.status)
    except ValueError as exc:
        c_train = None
        print("c_index not reported: %s" % exc, file=sys.stderr)

    bundle = model_to_dict(model, cfg, x_names=x_names, z_names=z_names)
    bundle["diagnostics"]["c_index_train"] = c_train
    os.makedirs(args.out, exist_ok=True)
    _json_dump(bundle, os.path.join(args.out, "model.json"))

    with open(os.path.join(args.out, "bic_path.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "bic", "n_selected"])
        for m in path:
            writer.writerow([fmt_value(m.lam), fmt_value(m.diagnostics["bic"]),
                             m.n_selected])

    write_selection_table(os.path.join(args.out, "selection.txt"),
                          model.beta_hat, model.support, x_names)

    print("selected %d of %d features at lambda=%s (bic=%s)"
          % (model.n_selected, dataset.p, fmt_value(model.lam),
             fmt_value(model.diagnostics["bic"])))
    if c_train is not None:
        print("train c_index=%s" % fmt_value(c_train))
    return 0


def cmd_predict(args) -> int:
    _check_out_file(args.out)
    bundle = _read_json(args.model, "model")
    try:
        model = model_from_dict(bundle)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliInputError("invalid model file: %s" % exc)
    columns = bundle["columns"]

    times, status, x, z, x_names, z_names = load_dataset_csv(
        args.data, require_outcome=False)
    if set(x_names) != set(columns["x"]) or set(z_names) != set(columns["z"]):
        raise CliInputError(
            "data columns do not match training schema "
            "(expected x: %s; z: %s)" % (",".join(columns["x"]),
                                         ",".join(columns["z"])))
    x = x[:, [x_names.index(n) for n in columns["x"]]]
    z = z[:, [z_names.index(n) for n in columns["z"]]]

    eta = predict_eta(model, x, z)
    write_predictions_csv(args.out, eta)
    if times is not None and status is not None:
        try:
            cidx = c_index(eta, times, status)
        except ValueError as exc:
            print("c_index not reported: %s" % exc, file=sys.stderr)
        else:
            print("c_index=%s" % fmt_value(cidx))
    print("wrote %d predictions to %s" % (eta.size, args.out))
    return 0


def cmd_simulate(args) -> int:
    sim_cfg, _ = run_records(args.config, args.seed)
    data = simulate_dataset(sim_cfg, replicate=0)
    os.makedirs(args.out, exist_ok=True)
    ds = data.dataset
    csv_path = os.path.join(args.out, "dataset.csv")
    write_dataset_csv(csv_path, ds)
    truth = {
        "beta0": [[int(j), float(data.beta0[j])] for j in data.support0],
        "support": [int(j) for j in data.support0],
        "alpha0": None if data.alpha0 is None
        else [float(v) for v in data.alpha0],
        "g0_kind": sim_cfg.g0_kind,
        "censoring_bound": data.censoring_bound,
        "censoring_rate": data.censoring_rate,
        "sim": asdict(sim_cfg),
    }
    _json_dump(truth, os.path.join(args.out, "truth.json"))
    print("wrote %s (n=%d, p=%d, r=%d, censoring=%.1f%%)"
          % (csv_path, ds.n, ds.p, ds.r, 100.0 * data.censoring_rate))
    return 0


def cmd_benchmark(args) -> int:
    sim_cfg, fit_cfg = run_records(args.config, args.seed, args.lambda_grid)
    if args.threads < 1:
        raise CliInputError("--threads must be >= 1")
    methods = {"dplc": fit_cfg, "cox_scad": replace(fit_cfg, fit_g=False)}

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "replicates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)

        def write(cells):  # flushed, so an interrupted run keeps its rows
            writer.writerow(cells)
            fh.flush()

        write(REPLICATE_FIELDS)
        rows, summary = run_experiment(
            sim_cfg, methods, n_workers=args.threads,
            row_callback=lambda row: write([fmt_value(getattr(row, f))
                                            for f in REPLICATE_FIELDS]))

    _json_dump({"sim": asdict(sim_cfg), "methods": list(methods),
                "summary": summary},
               os.path.join(args.out, "summary.json"))

    with open(os.path.join(args.out, "cindex_long.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "method", "c_index"])
        for row in rows:
            if row.error is None:
                writer.writerow([row.replicate, row.method,
                                 fmt_value(row.c_index_test)])

    header = ["method"]
    for name in SELECTION_FIELDS:
        label = "selected_features" if name == "selected_count" else name
        header += [label, label + "_se"]
    with open(os.path.join(args.out, "selection_summary.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for method in methods:
            cells = [method]
            for name in SELECTION_FIELDS:
                stats = summary[method].get(name)
                cells += ["" if stats is None else fmt_value(stats["mean"]),
                          "" if stats is None else fmt_value(stats["se"])]
            writer.writerow(cells)

    for method in methods:
        entry = summary[method]
        cstats = entry.get("c_index")
        print("%s: ok=%d failed=%d%s"
              % (method, entry["replicates_ok"], entry["replicates_failed"],
                 "" if cstats is None else
                 " median c_index=%s (iqr=%s)" % (fmt_value(cstats["median"]),
                                                  fmt_value(cstats["iqr"]))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dplc",
        description="Sparse partially linear Cox regression with a neural "
                    "risk term, plus a simulation benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="tune and fit a model on a dataset CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--config")
    p_fit.add_argument("--out", required=True,
                       help="output directory for model.json, selection.txt, "
                            "bic_path.csv")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--lambda-grid", dest="lambda_grid")
    p_fit.add_argument("--arch-grid", dest="arch_grid")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="linear predictors for new data")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True, help="predictions CSV path")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset")
    p_sim.add_argument("--config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark",
                             help="replicated simulation experiment")
    p_bench.add_argument("--config")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--lambda-grid", dest="lambda_grid")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DPLC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, OSError) as exc:  # OSError: an unwritable output
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalDivergence as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
