#!/usr/bin/env bash
# Run interleaved benchmark pairs: src/ at git revision REV against the
# working tree's src/, both driven by the working tree's perfbench/.
#
# usage: tools/bench_pairs.sh REV WORKLOAD N
#
# Unpacks src/ at REV with `git archive` into a temporary directory (no
# worktree) and copies the working tree's perfbench/ next to it; the other
# side is a copy of the working tree's src/ and perfbench/.  So both sides
# run the same benchmark code, and perfbench/ itself is left unedited.
# Pair s (s = 1..N) runs `perfbench/run.py --workload WORKLOAD --seed s`
# with BENCHMARK.json's run_seconds on each side, REV first when s is odd
# and the working tree first when s is even.  Prints, per end-to-end metric
# of BENCHMARK.json, each side's median and quartiles, the number of
# pairs the working tree wins and the number of pairs where both sides
# give the same value (a tie is a win for neither side).  The exit status
# is non-zero when a run fails its output checks.
set -u
rev=${1:?usage: tools/bench_pairs.sh REV WORKLOAD N}
workload=${2:?usage: tools/bench_pairs.sh REV WORKLOAD N}
pairs=${3:?usage: tools/bench_pairs.sh REV WORKLOAD N}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev" "$tmp/tree" "$tmp/out"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev" || exit 2
cp -r "$repo/perfbench" "$tmp/rev/" || exit 2
cp -r "$repo/src" "$repo/perfbench" "$tmp/tree/" || exit 2
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json") \
    || exit 2

status=0
bench() {  # bench SIDE SEED: one run; its stdout goes to out/SIDE_SEED.txt
    (cd "$tmp/$1" && python3 perfbench/run.py --workload "$workload" \
        --seed "$2" --seconds "$seconds" > "$tmp/out/$1_$2.txt") \
        || { echo "run failed: $1 seed $2" >&2; status=1; }
}

for s in $(seq 1 "$pairs"); do
    if [ $((s % 2)) -eq 1 ]; then
        bench rev "$s"
        bench tree "$s"
    else
        bench tree "$s"
        bench rev "$s"
    fi
done

python3 - "$repo/BENCHMARK.json" "$tmp/out" "$pairs" "$rev" <<'EOF' || status=1
import json
import os
import sys

import numpy as np

bench_json, out, pairs, rev = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]


def metrics(side, seed):
    """The metrics of one run's closing JSON line; {} if it has none."""
    with open(os.path.join(out, "%s_%d.txt" % (side, seed))) as fh:
        lines = fh.read().splitlines()
    try:
        return json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        return {}


runs = {side: [metrics(side, s) for s in range(1, pairs + 1)]
        for side in ("rev", "tree")}
print("%d pairs, seeds 1-%d: %s against the working tree"
      % (pairs, pairs, rev))
print("%-14s %-5s %28s %28s %6s %6s"
      % ("metric", "unit", "REV median [q1, q3]", "tree median [q1, q3]",
         "wins", "ties"))
for spec in json.load(open(bench_json))["end_to_end"]:
    name = spec["name"]
    if not all(name in m for side in runs.values() for m in side):
        print("%-14s missing from a run" % name)
        continue
    vals = {side: np.array([m[name]["value"] for m in ms])
            for side, ms in runs.items()}
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = int(np.sum(sign * (vals["tree"] - vals["rev"]) > 0))
    ties = int(np.sum(vals["tree"] == vals["rev"]))
    cells = ["%.4g [%.4g, %.4g]" % (np.median(v), *np.percentile(v, [25, 75]))
             for v in (vals["rev"], vals["tree"])]
    print("%-14s %-5s %28s %28s %3d/%d %3d/%d"
          % (name, spec["unit"], cells[0], cells[1], wins, pairs,
             ties, pairs))
EOF
exit $status
