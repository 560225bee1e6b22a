#!/usr/bin/env bash
# Rerun every experiment bench at `--quick --jobs 1 --csv` and diff
# its standard output against bench/golden/<bench>.csv; every byte
# must match.  abl_fleet_scale prints the jobs count, so --jobs 1 is
# part of the recipe.  A bench that exits nonzero (abl_fleet_scale
# and abl_adaptive_budget do when one of their claims breaks) prints
# `FAILED <bench> (exit N)` and counts as a failure; the remaining
# benches still run.  ctest runs this script as `bench.goldens`.
#
# usage: tools/check_bench_goldens.sh <build-dir> [--update]
#
# Exits 0 when every bench exits 0 and matches its golden, 1
# otherwise (a unified diff per mismatch goes to stdout).  --update
# rewrites the goldens from <build-dir> instead, except for a bench
# that exited nonzero, whose golden it leaves alone; to add a bench,
# create an empty bench/golden/<bench>.csv and run --update.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && $2 != --update ) ]]; then
    echo "usage: $0 <build-dir> [--update]" >&2
    exit 2
fi
build=$1
update=${2:-}
golden=$(cd "$(dirname "$0")/../bench/golden" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failed=0
for file in "$golden"/*.csv; do
    bench=$(basename "$file" .csv)
    status=0
    "$build/bench/$bench" --quick --jobs 1 --csv > "$tmp/$bench.csv" ||
        status=$?
    if [[ $status -ne 0 ]]; then
        echo "FAILED $bench (exit $status)"
        failed=1
    elif [[ -n $update ]]; then
        cp "$tmp/$bench.csv" "$file"
        echo "updated $bench"
    elif diff -u "$file" "$tmp/$bench.csv"; then
        echo "ok      $bench"
    else
        echo "DIFFERS $bench"
        failed=1
    fi
done
exit $failed
