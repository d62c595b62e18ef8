"""dplc benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload experiment_p50 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; dplc is imported from its `src/`.
Set-up makes the workload's inputs from --seed: one input set per draw,
each under its own program seed.  The timed CLI command then runs on the
draws in turn until --seconds have passed, every draw has run, draw 0 has
run twice, and at least three commands have run.  A rerun's outputs must be byte-identical to the draw's
first run, and every run must pass the workload's output checks.

--trace 0 prints the end-to-end metrics.  --trace 1 runs draw 0 three
times: a warm-up, an untraced run, and a run with every public dplc
function wrapped by spans.Tracer; it prints the per-layer metrics plus the
tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Exit
code 0 means every check passed, 1 that one failed, 2 that no dplc source
tree was found.  README.md says why each workload exists.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
TRACES = os.path.join(ROOT, ".perfbench_traces")
N_SETUP = 3          # set-ups per run; setup_s reports their median
MIN_RUNS = 3         # timed commands per run, so that wall_s is a median


def machine():
    """The hardware and software the numbers were measured on."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES")
                        * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def draw_seed(seed, k):
    """Program seed of draw k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_cli(cli, argv):
    """Run one dplc command in-process: (exit code, stdout, seconds, error)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        error = None
    except Exception:  # a crash is a failed operation, not a benchmark crash
        code, error = None, traceback.format_exc(limit=3)
    return code, out.getvalue(), time.perf_counter() - start, error


def tree_diff(a, b):
    """Relative paths whose bytes differ between two directory trees."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names}

    fa, fb = files(a), files(b)
    diff = sorted(fa ^ fb)
    for rel in sorted(fa & fb):
        with open(os.path.join(a, rel), "rb") as x, \
                open(os.path.join(b, rel), "rb") as y:
            if x.read() != y.read():
                diff.append(rel)
    return diff


def set_up(cli, workload, top, seed):
    """Make every draw's inputs under `top`; returns the draw directories."""
    dirs = []
    for k in range(workload.draws):
        d = os.path.join(top, "draw%d" % k)
        os.makedirs(d)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(cli, d, draw_seed(seed, k))
        dirs.append(d)
    return dirs


class Runs:
    """Runs the timed command and tallies its operations and checks."""

    def __init__(self, cli, workload, draw_dirs, ws, seed):
        self.cli, self.workload, self.draw_dirs = cli, workload, draw_dirs
        self.ws, self.seed = ws, seed
        self.times = [[] for _ in draw_dirs]      # seconds, per draw
        self.first = [None] * len(draw_dirs)  # (out, stdout, outcome, problems)
        self.problems = []
        self.attempted = self.failed = 0

    def run(self, k, span=contextlib.nullcontext()):
        """Run draw k once; `span` wraps the command alone, not its checks."""
        out = os.path.join(self.ws, "draw%d-run%d" % (k, len(self.times[k])))
        os.makedirs(out)
        argv = self.workload.argv(self.draw_dirs[k], out,
                                  draw_seed(self.seed, k))
        with span:
            code, stdout, seconds, error = run_cli(self.cli, argv)
        stdout = stdout.replace(out, "<out>")
        self.times[k].append(seconds)
        outcome, problems = None, []
        first = self.first[k]
        if code != 0:
            problems.append("exit code %r%s" % (code, "\n" + error if error else ""))
        elif first and (stdout, tree_diff(first[0], out)) == (first[1], []):
            # Same bytes as the draw's first run, so the same verdict.
            outcome, problems = first[2], list(first[3])
        else:
            try:
                outcome = self.workload.check(self.draw_dirs[k], out, stdout)
                problems += outcome.problems
            except Exception:  # unreadable output is a failed check
                problems.append("output check raised:\n"
                                + traceback.format_exc(limit=3))
            if first:
                problems.append("outputs differ from the first run: %s"
                                % ", ".join(tree_diff(first[0], out) or ["stdout"]))
        if first is None:
            self.first[k] = (out, stdout, outcome, problems)
        self.attempted += self.workload.ops
        self.failed += self.workload.ops if problems else outcome.failed
        self.problems += ["draw %d run %d: %s" % (k, len(self.times[k]), p)
                          for p in problems]
        return seconds

    def outcome_median(self, field):
        """Median over the draws of one field of their check outcomes; 0 when
        no output could be checked (JSON has no NaN)."""
        values = [getattr(first[2], field) for first in self.first
                  if first and first[2] is not None]
        return statistics.median(values) if values else 0.0


def timed_run(cli, workload, ws, seed, seconds, import_s):
    setup_times = []
    for rep in range(N_SETUP):
        top = os.path.join(ws, "setup%d" % rep)
        start = time.perf_counter()
        dirs = set_up(cli, workload, top, seed)
        setup_times.append(time.perf_counter() - start)
        if rep and tree_diff(os.path.join(ws, "setup0"), top):
            raise RuntimeError("set-up outputs differ between two set-ups")
    runs = Runs(cli, workload, dirs, ws, seed)
    start = time.perf_counter()
    n = 0
    while n < max(workload.draws + 1, MIN_RUNS) \
            or time.perf_counter() - start < seconds:
        runs.run(n % workload.draws)
        n += 1
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(t for ts in runs.times for t in ts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "c_index": (runs.outcome_median("c_index"), "ratio"),
        "selection_acc": (runs.outcome_median("selection_acc"), "ratio"),
        "success_rate": ((runs.attempted - runs.failed) / runs.attempted,
                         "ratio"),
    }
    return runs, metrics


def traced_run(cli, dplc, workload, ws, seed):
    tracer = spans.Tracer(dplc)
    tracer.install()
    try:
        with tracer.root("setup"):
            dirs = set_up(cli, workload, os.path.join(ws, "setup0"), seed)
    finally:
        tracer.remove()
    runs = Runs(cli, workload, dirs, ws, seed)
    runs.run(0)    # warm-up: the first command in a process runs slower
    untraced = runs.run(0)
    tracer.install()
    try:
        traced = runs.run(0, span=tracer.root("command"))
    finally:
        tracer.remove()
    os.makedirs(TRACES, exist_ok=True)
    tracer.save(os.path.join(TRACES, "%s.npz" % workload.name))
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        "trace.spans": (len(tracer.span_name), "count"),
    })
    return runs, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(SRC, "dplc")):
        print("no dplc package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import dplc
        from dplc import cli
    except ImportError as exc:
        print("cannot import dplc: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T0

    ws = os.path.join(WORK, "%s-seed%d-pid%d" % (workload.name, args.seed,
                                                 os.getpid()))
    os.makedirs(ws)
    try:
        if args.trace:
            runs, metrics = traced_run(cli, dplc, workload, ws, args.seed)
        else:
            runs, metrics = timed_run(cli, workload, ws, args.seed,
                                      args.seconds, import_s)
    finally:
        shutil.rmtree(ws, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    print("workload %s, seed %d, run seconds per draw: %s"
          % (workload.name, args.seed,
             "; ".join(", ".join("%.3f" % t for t in ts)
                       for ts in runs.times if ts)))
    print("machine %s" % json.dumps(machine(), sort_keys=True))
    for problem in runs.problems:
        print("CHECK FAILED %s" % problem)
    for name, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print("%-36s %.6g ratio (%d failed of %d operations)"
          % ("error_rate", runs.failed / runs.attempted, runs.failed,
             runs.attempted))
    correct = runs.failed == 0 and not runs.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
