"""The side-by-side runner of the bench tools, tools/sides.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

TOY_TOOL = '''"""A toy tool that reports which dplc it imported."""

import sys

sys.path.insert(0, {tools!r})
import sides


def measure():
    import dplc

    with open({log!r}, "a") as fh:
        fh.write(dplc.MARKER + " ")
    return {{"marker": dplc.MARKER}}


def rows(runs):
    for name, side_runs in runs.items():
        print(name, [run["marker"] for run in side_runs])
    return [{{"side": name, "markers": [run["marker"] for run in side_runs]}}
            for name, side_runs in runs.items()]


if __name__ == "__main__":
    raise SystemExit(sides.main(__doc__, __file__, measure, rows,
                                out="toy.json", rounds=2,
                                settings={{"rounds": 2}}))
'''


def test_each_side_runs_its_own_tree_in_alternating_order(tmp_path):
    for name in ("a", "b"):
        package = tmp_path / name / "dplc"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("MARKER = %r\n" % name)
    log = tmp_path / "order.log"
    tool = tmp_path / "toy.py"
    tool.write_text(TOY_TOOL.format(tools=str(TOOLS), log=str(log)))
    out = tmp_path / "toy.json"
    done = subprocess.run(
        [sys.executable, str(tool), "--side", "a=%s" % (tmp_path / "a"),
         "--side", "b=%s" % (tmp_path / "b"), "--out", str(out)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, check=True, text=True)
    assert log.read_text().split() == ["a", "b", "b", "a"]
    assert done.stderr.splitlines() == ["round 1: a done", "round 1: b done",
                                        "round 2: b done", "round 2: a done"]
    assert done.stdout.splitlines() == ["a ['a', 'a']", "b ['b', 'b']"]
    result = json.loads(out.read_text())
    assert list(result) == ["machine", "settings", "rows"]
    assert list(result["machine"]) == ["nproc", "cpu", "ram_gb", "python",
                                       "numpy", "blas", "blas_threads"]
    machine = result["machine"]
    assert machine["blas_threads"] == (1 if "openblas" in machine["blas"]
                                       else None)
    assert result["settings"] == {"rounds": 2, "sides": ["a", "b"]}
    assert list(result["settings"])[-1] == "sides"
    assert result["rows"] == [{"side": "a", "markers": ["a", "a"]},
                              {"side": "b", "markers": ["b", "b"]}]


def test_unwritable_out_exits_2_before_any_round(tmp_path):
    package = tmp_path / "a" / "dplc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("MARKER = 'a'\n")
    log = tmp_path / "order.log"
    tool = tmp_path / "toy.py"
    tool.write_text(TOY_TOOL.format(tools=str(TOOLS), log=str(log)))
    out = tmp_path / "missing" / "x.json"
    done = subprocess.run(
        [sys.executable, str(tool), "--side", "a=%s" % (tmp_path / "a"),
         "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 2
    assert "--out %s" % out in done.stderr
    assert "round" not in done.stderr
    assert not log.exists()


@pytest.mark.parametrize("tool", ["bench_layers", "bench_paths",
                                  "bench_acceptance"])
def test_help_exits_0(tool):
    done = subprocess.run([sys.executable, str(TOOLS / ("%s.py" % tool)),
                           "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "--side NAME=SRC" in done.stdout and "--out" in done.stdout
    assert "--child" not in done.stdout


def test_bench_paths_child_measures_the_working_tree(monkeypatch):
    # The tool's own measure() on src/, so an API change that breaks it
    # fails here; the baseline has no network, so it trains none.
    done = subprocess.run(
        [sys.executable, str(TOOLS / "bench_paths.py"), "--child"],
        env=dict(os.environ, PYTHONPATH=str(TOOLS.parent / "src"),
                 OPENBLAS_NUM_THREADS="1"),
        capture_output=True, check=True, text=True)
    record = json.loads(done.stdout)
    keys = ["dplc 50", "cox_scad 50", "dplc 500", "cox_scad 500"]
    assert list(record) == keys
    for key, rec in record.items():
        assert rec["fits"] == 12 and rec["cd_calls"] >= 12
        if key.startswith("cox_scad"):
            assert rec["fits_run"] == 0 and rec["adam_s"] == 0.0
            assert rec["cd_calls"] == 12
        else:
            assert rec["fits_run"] in (2, 3) and rec["adam_s"] > 0.0
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_paths

    table = bench_paths.rows({"tree": [record]})
    assert ["%s %d" % (row["method"], row["p"]) for row in table] == keys
    assert all(row["tree"]["cd_calls"] == record[key]["cd_calls"]
               for row, key in zip(table, keys))
