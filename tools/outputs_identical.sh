#!/usr/bin/env bash
# Check that the dplc commands write the same bytes as at git revision REV.
#
# usage: tools/outputs_identical.sh REV
#
# Unpacks src/ at REV with `git archive` into a temporary directory (no
# worktree), then runs the same commands against that copy and against the
# working tree's src/: simulate --seed 0, the default fit, a fit with a
# small architecture grid, a fit with --lambda-grid 0.05,0.1,0.2, a fit
# with a config's fit section (arch and max_outer), --seed 3 and
# --lambda-grid 0.05,0.1 together, predict with the default fit's model on
# the simulated data and on a copy with odd but valid cells (quoted,
# padded, digit-grouped; CRLF endings, so the loader's block-by-block
# fallback reads it), simulate with {"sim": {"n": 2500}} and predict on
# that (the CSV writers then cross row-block boundaries), the same predict
# with the file piped to --data /dev/stdin (a pipe cannot be rewound, so
# the fallback reads all of its row blocks), simulate and the default fit
# at {"sim": {"p": 500}} (coordinate descent's p > n path, with its
# Newton steps and capped calls), benchmark with
# {"seed": s, "sim": {"replicates": 1}} for s = 0, 1, 2, and benchmark
# --threads 2 with {"seed": 0, "sim": {"replicates": 2}}, so the process
# pool's rows are compared too.  Four runs
# exit 2: simulate with a config holding an unknown nested key, one with a
# wrongly typed value and one whose root is not an object, and a fit whose
# --lambda-grid holds a token that is not a number.
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
    echo '{"fit": {"arch": {"hidden_widths": [4, 4], "dropout_rate": 0.0},
           "max_outer": 6}}' > fit_cfg.json
    run fit_cfg fit --data sim/dataset.csv --out fit_cfg \
        --config fit_cfg.json --seed 3 --lambda-grid 0.05,0.1
    echo '{"fit": {"arch": {"input_dim": 8}}}' > bad_key.json
    echo '{"sim": {"n": 3.5}}' > bad_type.json
    echo '[{"seed": 1}]' > bad_root.json
    for bad in bad_key bad_type bad_root; do
        run "$bad" simulate --config "$bad.json" --out "$bad"
    done
    run bad_grid fit --data sim/dataset.csv --out bad_grid \
        --lambda-grid 0.05,x
    run predict predict --model fit/model.json --data sim/dataset.csv \
        --out predict.csv
    sed -e '2s/^\([^,]*\)/"\1"/' -e '3s/,/, /g' \
        -e '4s/\([0-9]\)\([0-9]\)/\1_\2/' sim/dataset.csv > odd.csv
    run predict_odd predict --model fit/model.json --data odd.csv \
        --out predict_odd.csv
    echo '{"sim": {"n": 2500}}' > sim_2500.json
    run simulate_2500 simulate --config sim_2500.json --out sim_2500
    run predict_2500 predict --model fit/model.json \
        --data sim_2500/dataset.csv --out predict_2500.csv
    cat sim_2500/dataset.csv | run predict_pipe predict \
        --model fit/model.json --data /dev/stdin --out predict_pipe.csv
    echo '{"sim": {"p": 500}}' > sim_p500.json
    run simulate_p500 simulate --config sim_p500.json --out sim_p500
    run fit_p500 fit --data sim_p500/dataset.csv --out fit_p500
    for s in 0 1 2; do
        echo "{\"seed\": $s, \"sim\": {\"replicates\": 1}}" > "bench_$s.json"
        run "bench_$s" benchmark --config "bench_$s.json" --out "bench_$s"
    done
    echo '{"seed": 0, "sim": {"replicates": 2}}' > bench_threads.json
    run bench_threads benchmark --config bench_threads.json \
        --out bench_threads --threads 2
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
