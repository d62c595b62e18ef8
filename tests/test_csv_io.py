"""Dataset CSV input and output: the loader against the cell-by-cell
reference it replaced, its memory, and the row-block writers' bytes."""

import csv
import io
import math
import os
import random
import threading
import tracemalloc

import numpy as np
import pytest

import dplc.cli as cli
from dplc import SurvivalDataset
from dplc.cli import (WRITE_BLOCK_ROWS, CliInputError, load_dataset_csv,
                      write_dataset_csv, write_predictions_csv)
from dplc.simulation import fmt_value


def reference_load_dataset_csv(path, require_outcome=True):
    """The loader as it was before numpy's C reader: csv.reader, then one
    float() per cell.  Kept verbatim as the oracle, except that it opens
    the file as UTF-8 where it used the locale's encoding."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CliInputError("cannot read data: %s" % exc)
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
        extras = [n for n in names
                  if n not in ("time", "status") and not n.startswith(("x_", "z_"))]
        if extras:
            raise CliInputError("%s: unrecognized columns: %s"
                                % (path, ", ".join(extras)))
        for required in ("time", "status") if require_outcome else ():
            if required not in col_of:
                raise CliInputError("%s: missing required column '%s'"
                                    % (path, required))
        if not x_names or not z_names:
            raise CliInputError("%s: need at least one x_ and one z_ column"
                                % path)

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                # a bad cell on an earlier line is reported first
                raise CliInputError(
                    reference_first_bad_cell(path, names, rows)
                    or "%s line %d: expected %d cells, got %d"
                    % (path, lineno, len(names), len(row)))
            rows.append(row)
        if not rows:
            raise CliInputError("%s: no data rows" % path)

    # numpy parses each cell with Python's float(), whitespace included
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        raise CliInputError(reference_first_bad_cell(path, names, rows)
                            or "%s: cells are not all finite numbers" % path)
    times = status = None
    if "time" in col_of:
        times = data[:, col_of["time"]]
        if np.any(times <= 0):
            raise CliInputError("%s: column 'time' must be > 0" % path)
    if "status" in col_of:
        status = data[:, col_of["status"]]
        if not np.all(np.isin(status, (0.0, 1.0))):
            raise CliInputError("%s: column 'status' must be 0 or 1" % path)
    if require_outcome and (times is None or status is None):
        raise CliInputError("%s: time and status are required" % path)
    x = data[:, [col_of[n] for n in x_names]]
    z = data[:, [col_of[n] for n in z_names]]
    return times, status, x, z, x_names, z_names


def reference_first_bad_cell(path, names, rows):
    for lineno, row in enumerate(rows, start=2):
        for k, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                return ("%s line %d, column '%s': missing value"
                        % (path, lineno, names[k]))
            try:
                value = float(cell)
            except ValueError:
                return ("%s line %d, column '%s': not a number: %r"
                        % (path, lineno, names[k], cell))
            if not math.isfinite(value):
                return ("%s line %d, column '%s': non-finite value"
                        % (path, lineno, names[k]))
    return None


ODD_VALID = [" 1.5 ", "\t2", "2\t", "\xa03", "+3", ".5", "7.", "1_000",
             '"2.5"', '" 4 "', "1e5", "1E-3", "-0", "5e-324", "1e-400",
             "\u0663", "\u30006", "0.1_25"]
ODD_STATUS = [" 1", "+0", "1.", '"1"', "\xa00\t", "1e0", "\u0661", "0_0"]
BAD = ["", " ", "abc", "nan", "-inf", "1e400", "0x10", "#", "2#", '"1,5"',
       "1 2", "1e", "--1"]
EOLS = ["\n", "\r\n", "\r"]


def random_cell(rng, name, odd=0.0, bad=0.0):
    u = rng.random()
    if u < odd:
        return rng.choice(ODD_STATUS if name == "status" else ODD_VALID)
    if u < odd + bad:
        return rng.choice(BAD)
    if name == "status":
        return rng.choice(["0", "1"])
    value = rng.uniform(0.01, 10.0) if name == "time" \
        else rng.gauss(0.0, 10.0 ** rng.randint(-3, 3))
    return rng.choice([repr(value), "%.3g" % value, "%d" % round(value)])


def random_csv_text(rng):
    """A small dataset CSV: some clean, some with odd valid or bad cells,
    blank lines, short or long rows, any line ending, any final line."""
    names = ["time", "status"] \
        + ["x_%d" % (j + 1) for j in range(rng.randint(1, 3))] \
        + ["z_%d" % (k + 1) for k in range(rng.randint(1, 2))]
    if rng.random() < 0.1:
        names.remove(rng.choice(["time", "status"]))
    rng.shuffle(names)
    odd = rng.choice([0.0, 0.05, 0.2])
    bad = rng.choice([0.0, 0.0, 0.02, 0.1])
    lines = [",".join(names)]
    for _ in range(rng.randint(1, 10) if rng.random() < 0.95 else 0):
        row = [random_cell(rng, name, odd, bad) for name in names]
        u = rng.random()
        if u < bad:
            row = row[:rng.randint(0, len(row) - 1)]  # [] is a blank line
        elif u < 2 * bad:
            row.append(random_cell(rng, "x_1"))
        lines.append(",".join(row))
    if rng.random() < bad:
        lines.insert(rng.randint(1, len(lines)), rng.choice(["", " ", "\t"]))
    eol = rng.choice(EOLS + [None])  # None: a random ending per line
    text = "".join(line + (eol or rng.choice(EOLS)) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


def load_outcome(loader, path, require_outcome):
    """What a loader made of a file: its arrays' exact bytes and the
    names, or its CliInputError text."""
    try:
        *arrays, x_names, z_names = loader(path, require_outcome)
    except CliInputError as exc:
        return "error", str(exc)
    return "ok", [None if a is None else (a.dtype.str, a.shape, a.tobytes())
                  for a in arrays], x_names, z_names


@pytest.mark.filterwarnings("error")  # numpy warns on a file with no data
def test_loader_matches_cell_by_cell_reference(tmp_path, monkeypatch):
    paths = []  # which reader settled each file: "fast" or "fallback"
    read_floats = cli._read_floats

    def spy(fh, width):
        data = read_floats(fh, width)
        paths.append("fallback" if data is None else "fast")
        return data

    monkeypatch.setattr(cli, "_read_floats", spy)
    rng = random.Random(20231)
    outcomes = []
    for k in range(400):
        path = str(tmp_path / ("f%d.csv" % k))
        text = random_csv_text(rng)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        require_outcome = rng.random() < 0.8
        got = load_outcome(load_dataset_csv, path, require_outcome)
        want = load_outcome(reference_load_dataset_csv, path,
                            require_outcome)
        assert got == want, (path, text)
        outcomes.append(got[0])
    # both readers and both outcomes are well exercised
    assert paths.count("fast") > 100 and paths.count("fallback") > 100
    assert outcomes.count("ok") > 100 and outcomes.count("error") > 100


@pytest.mark.parametrize("tail, outcome", [("", "ok"),
                                           ("3,1,1,2,x\n", "error")])
def test_fallback_takes_finite_cells_whose_sum_overflows(tmp_path, tail,
                                                         outcome):
    # the quoted cell sends the file to the cell-by-cell reader, which
    # must not take a row's overflowing sum for a bad cell
    path = str(tmp_path / "big_cells.csv")
    with open(path, "w") as fh:
        fh.write('time,status,x_1,x_2,z_1\n"1e308",1,1e308,1e308,-1.5\n'
                 "2,0,-1e308,-1e308,1e308\n" + tail)
    want = load_outcome(reference_load_dataset_csv, path, True)
    assert want[0] == outcome
    assert load_outcome(load_dataset_csv, path, True) == want


def test_unseekable_file_is_read_cell_by_cell(tmp_path):
    # a pipe cannot be read twice, so it goes straight to csv.reader
    path = str(tmp_path / "pipe.csv")
    os.mkfifo(path)
    text = "time,status,x_1,z_1\n2.5,1,1_000,-1\n1.5,0, .5 ,7.\n"

    def feed():
        with open(path, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        times, status, x, z, _, _ = load_dataset_csv(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert times.tolist() == [2.5, 1.5] and status.tolist() == [1.0, 0.0]
    assert x[:, 0].tolist() == [1000.0, 0.5] and z[:, 0].tolist() == [-1.0, 7.0]


def test_loader_memory_is_about_the_float_array(tmp_path):
    n, p, r = 20000, 50, 8
    rng = np.random.default_rng(5)
    ds = SurvivalDataset(times=rng.exponential(size=n),
                         status=(rng.random(n) < 0.7).astype(float),
                         x=rng.standard_normal((n, p)),
                         z=rng.standard_normal((n, r)))
    path = str(tmp_path / "big.csv")
    write_dataset_csv(path, ds)
    tracemalloc.start()
    try:
        times, status, x, z, _, _ = load_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float array alone is 20 000 x 60 x 8 bytes = 9.6 MB
    assert peak < 32 * 2 ** 20
    # the file holds the rows in the order given, the dataset in its own
    for got, want in ((times, ds.times), (status, ds.status), (x, ds.x),
                      (z, ds.z)):
        assert got[ds.rows].tobytes() == want.tobytes()


AWKWARD = [-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2]


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n", [1, WRITE_BLOCK_ROWS, 2 * WRITE_BLOCK_ROWS + 7])
def test_writers_give_csv_writer_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    awkward = np.resize(AWKWARD, (n, 3))
    awkward[1::2] *= rng.standard_normal((n // 2, 3))
    times = np.abs(awkward[:, 0]) + (awkward[:, 0] == 0)
    status = np.arange(n) % 2
    ds = SurvivalDataset(times=times, status=status,
                         x=awkward[:, :2], z=awkward[:, 2:])
    # the rows as given, not as the dataset stores them
    write_dataset_csv(tmp_path / "d.csv", ds)
    assert (tmp_path / "d.csv").read_bytes() == csv_writer_bytes(
        ["time", "status", "x_1", "x_2", "z_1"],
        [[fmt_value(float(times[i])), int(status[i])]
         + [fmt_value(float(v)) for v in awkward[i]] for i in range(n)])

    eta = awkward[:, 1]
    write_predictions_csv(tmp_path / "p.csv", eta)
    assert (tmp_path / "p.csv").read_bytes() == csv_writer_bytes(
        ["row", "eta"], [[i, fmt_value(float(v))] for i, v in enumerate(eta)])
