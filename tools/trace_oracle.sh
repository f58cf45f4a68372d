#!/bin/sh
# Behaviour oracle: run `evaluate` on {"mode": M, "seed": 7, "repeats": 2} for
# each experiment mode M, on the `occluded` run {"mode": "thousand", "seed": 7,
# "repeats": 2, "occlusion_fraction": 0.5, "noise_sigma": 0.002}, which takes
# the observed cloud's occlusion and noise path, and on the `edges` run, the
# same with occlusion 0.9 and noise 0.6, whose rollouts end in retrieval
# failures and in registration's NoCorrespondences, each at --jobs 1 and
# --jobs 2, and print one line "run jobs trace_sha256 report_sha256 seconds"
# per run: the trace hash from summary.json, the sha256 of report.csv, and the
# wall time of the `evaluate`.
# Both hashes are checked against tools/trace_oracle.expected, one
# "run trace_sha256 report_sha256" line per run.  Exits 1 if a hash differs
# from the expected one or depends on the job count (exit 2 if a run fails).
# For each --jobs 1 run it also runs `report` on the run's traces.jsonl and
# summary.json and exits 1, naming the file, unless report.csv, summary.json,
# chart.svg and failures.svg come out byte for byte as `evaluate` wrote them.
# A refactor that keeps behaviour keeps every hash.
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
done
printf '{"mode": "thousand", "seed": 7, "repeats": 2, "occlusion_fraction": 0.5, "noise_sigma": 0.002}\n' \
    > "$work/occluded.json"
printf '{"mode": "thousand", "seed": 7, "repeats": 2, "occlusion_fraction": 0.9, "noise_sigma": 0.6}\n' \
    > "$work/edges.json"
for run in dataset_size diversity thousand occluded edges; do
    first=""
    for jobs in 1 2; do
        start=$(python3 -c 'import time; print(time.time())')
        python3 -m trajtransfer.cli evaluate --config "$work/$run.json" \
            --output "$work/$run-$jobs" --jobs "$jobs" > /dev/null 2> "$work/log" \
            || { cat "$work/log" >&2; exit 2; }
        seconds=$(python3 -c 'import sys, time; print("%.1f" % (time.time() - float(sys.argv[1])))' "$start")
        hashes=$(python3 -c 'import hashlib, json, sys; d = sys.argv[1]
print(json.load(open(d + "/summary.json"))["trace_sha256"],
      hashlib.sha256(open(d + "/report.csv", "rb").read()).hexdigest())' "$work/$run-$jobs")
        echo "$run $jobs $hashes $seconds"
        expected=$(awk -v m="$run" '$1 == m { print $2, $3 }' "$root/tools/trace_oracle.expected")
        if [ "$hashes" != "$expected" ]; then
            echo "error: $run at --jobs $jobs: hashes $hashes, expected ${expected:-none}" >&2
            status=1
        fi
        if [ "$jobs" = 1 ]; then
            out="$work/$run-$jobs"
            python3 -m trajtransfer.cli report --traces "$out/traces.jsonl" --config "$out/summary.json" \
                --output "$work/$run-report" > /dev/null 2> "$work/log" \
                || { cat "$work/log" >&2; exit 2; }
            for name in report.csv summary.json chart.svg failures.svg; do
                if ! cmp -s "$work/$run-report/$name" "$out/$name"; then
                    echo "error: $run: report does not rebuild evaluate's $name" >&2
                    status=1
                fi
            done
        fi
        if [ -z "$first" ]; then
            first=$hashes
        elif [ "$hashes" != "$first" ]; then
            echo "error: $run traces or report differ between --jobs 1 and --jobs $jobs" >&2
            status=1
        fi
    done
done
exit $status
