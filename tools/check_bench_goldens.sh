#!/usr/bin/env bash
# Rerun experiment benches at `--quick --jobs 1 --csv` and diff each
# one's standard output against bench/golden/<bench>.csv; every byte
# must match.  abl_fleet_scale prints the jobs count, so --jobs 1 is
# part of the recipe.  ctest runs this once per bench, as
# `bench.golden.<bench>`; with no bench names it checks every golden.
#
# usage: tools/check_bench_goldens.sh <build-dir> [--update] [bench...]
#
# Exits 0 when every bench exits 0 and matches its golden, 1
# otherwise: a unified diff per mismatch goes to stdout, a bench that
# exits nonzero (one whose claims break) prints `FAILED <bench> (exit
# N)` and one without a golden `MISSING <bench>`.  --update rewrites
# the goldens from <build-dir> instead, except for a bench that
# exited nonzero; to add a bench, create an empty
# bench/golden/<bench>.csv and run --update.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [--update] [bench...]" >&2
    exit 2
fi
build=$1
shift
update=
if [[ ${1:-} == --update ]]; then
    update=1
    shift
fi
golden=$(cd "$(dirname "$0")/../bench/golden" && pwd)
if [[ $# -eq 0 ]]; then
    set -- $(cd "$golden" && ls -- *.csv | sed 's/\.csv$//')
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failed=0
for bench in "$@"; do
    file=$golden/$bench.csv
    status=0
    if [[ ! -f $file ]]; then
        echo "MISSING $bench (no bench/golden/$bench.csv)"
        failed=1
        continue
    fi
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
