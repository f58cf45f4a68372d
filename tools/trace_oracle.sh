#!/bin/sh
# Behaviour oracle: run `evaluate` on {"mode": M, "seed": 7, "repeats": 2} for
# each experiment mode at --jobs 1 and --jobs 2, and print one line
# "mode jobs trace_sha256" per run.  Exits 1 if a mode's hash depends on the
# job count (exit 2 if a run fails).  A refactor that keeps behaviour keeps
# every hash.
#
#   sh tools/trace_oracle.sh
set -eu
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0
for mode in dataset_size diversity thousand; do
    printf '{"mode": "%s", "seed": 7, "repeats": 2}\n' "$mode" > "$work/$mode.json"
    first=""
    for jobs in 1 2; do
        python3 -m trajtransfer.cli evaluate --config "$work/$mode.json" \
            --output "$work/$mode-$jobs" --jobs "$jobs" > /dev/null 2> "$work/log" \
            || { cat "$work/log" >&2; exit 2; }
        sha=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["trace_sha256"])' \
            "$work/$mode-$jobs/summary.json")
        echo "$mode $jobs $sha"
        if [ -z "$first" ]; then
            first=$sha
        elif [ "$sha" != "$first" ]; then
            echo "error: $mode traces differ between --jobs 1 and --jobs $jobs" >&2
            status=1
        fi
    done
done
exit $status
