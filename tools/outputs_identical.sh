#!/usr/bin/env bash
# Check that the dplc commands write the same bytes as at git revision REV.
#
# usage: tools/outputs_identical.sh REV
#
# Unpacks src/ at REV with `git archive` into a temporary directory (no
# worktree), then runs the same commands against that copy and against the
# working tree's src/: simulate --seed 0, the default fit, a fit with a
# small architecture grid, a fit with --lambda-grid 0.05,0.1,0.2, predict
# with the default fit's model, and benchmark with
# {"seed": s, "sim": {"replicates": 1}} for s = 0, 1, 2.
# Every output file, stdout and stderr included, is compared with diff -r;
# the exit status is non-zero on any difference.
set -u
rev=${1:?usage: tools/outputs_identical.sh REV}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev"
git -C "$repo" archive "$rev" src | tar -x -C "$tmp/rev" || exit 2

run() {  # run NAME ARGS...: one dplc command, its output and exit code
    local name=$1
    shift
    python3 -m dplc.cli "$@" > "$name.out" 2>&1
    echo "exit $?" >> "$name.out"
}

run_side() {  # run_side SRC OUT
    mkdir -p "$2"
    cd "$2" || exit 2
    export PYTHONPATH=$1
    run simulate simulate --seed 0 --out sim
    run fit fit --data sim/dataset.csv --out fit
    run fit_arch fit --data sim/dataset.csv --out fit_arch \
        --arch-grid "depths=1;widths=2,4;dropout=0.3;lr=0.01"
    run fit_grid fit --data sim/dataset.csv --out fit_grid \
        --lambda-grid 0.05,0.1,0.2
    run predict predict --model fit/model.json --data sim/dataset.csv \
        --out predict.csv
    for s in 0 1 2; do
        echo "{\"seed\": $s, \"sim\": {\"replicates\": 1}}" > "bench_$s.json"
        run "bench_$s" benchmark --config "bench_$s.json" --out "bench_$s"
    done
}

(run_side "$tmp/rev/src" "$tmp/out_rev") &
(run_side "$repo/src" "$tmp/out_tree") &
wait
if diff -r "$tmp/out_rev" "$tmp/out_tree"; then
    echo "outputs identical to $rev"
else
    echo "outputs differ from $rev" >&2
    exit 1
fi
