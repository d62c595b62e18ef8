"""Run a bench tool side by side for dplc source trees.

A tool built on this runner is run as

    python3 tools/TOOL.py --side NAME=SRC [--side NAME=SRC ...] [--out FILE]

Each --side names a directory holding the `dplc` package (for example
`src`, or the `src/` of another revision unpacked with `git archive`).
Every side is measured once in each of the tool's rounds, in a fresh
process that runs the tool's measure() under the hidden --child flag and
imports dplc from the side's directory, and the sides take turns going
first, so a slow spell of a shared machine falls on all of them alike.
The tool's rows() builds and prints the table from {side name: [one
measure() result per round]}.  --out, whose default each tool sets, gets
the record of the machine (perfbench/run.py's machine(), the one that
perfbench runs print), the tool's settings with the side names last, and
the rows; a --out that cannot be written (its directory is missing,
or it is a directory) exits 2 before the first round.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def main(doc, file, measure, rows, *, out, rounds, settings) -> int:
    """The command line of the tool whose docstring is doc and whose
    script is file: with --child, print measure()'s JSON; else run every
    side `rounds` times, pass the results to rows() and write the JSON
    {"machine", "settings", "rows"} to --out (default `out`)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--side", action="append", default=[],
                        metavar="NAME=SRC", help="a dplc source directory")
    parser.add_argument("--out", default=out)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(measure(), sys.stdout)
        return 0
    sides = [spec.split("=", 1) for spec in args.side]
    if not sides or any(len(side) != 2 for side in sides):
        parser.error("give at least one --side NAME=SRC")
    if len({name for name, _ in sides}) != len(sides):
        parser.error("each --side needs its own NAME")
    parent = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(parent):
        parser.error("--out %s: %s is not a directory" % (args.out, parent))
    if os.path.isdir(args.out):
        parser.error("--out %s is a directory" % args.out)

    runs = {name: [] for name, _ in sides}
    for r in range(rounds):
        for name, src in (sides if r % 2 == 0 else sides[::-1]):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            child = subprocess.run(
                [sys.executable, os.path.abspath(file), "--child"],
                env=env, stdout=subprocess.PIPE, check=True, text=True)
            runs[name].append(json.loads(child.stdout))
            print("round %d: %s done" % (r + 1, name), file=sys.stderr)
    table = rows(runs)
    sys.path.insert(0, PERFBENCH)
    from run import machine

    with open(args.out, "w") as fh:
        json.dump({"machine": machine(),
                   "settings": {**settings, "sides": list(runs)},
                   "rows": table}, fh, indent=2)
        fh.write("\n")
    return 0
