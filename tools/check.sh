#!/bin/sh
# Pre-merge check for a change that claims to keep behaviour bit for bit: the
# fast test loop (every test but tests/test_acceptance.py), then
# tools/kd_points.py, whose line must equal the kd_points entry of the newest
# BENCH_<N>.json, then the behaviour oracle tools/trace_oracle.sh.  All three
# always run; exits 1 if any fails, after naming it.  The last line is the
# src/ Python line count (wc -l), the measure of the "same behaviour from
# less code" aim.
#
#   sh tools/check.sh
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
status=0
(cd "$root" && python3 -m pytest -q --ignore=tests/test_acceptance.py) || {
    echo "error: fast test loop failed" >&2
    status=1
}
got=$(cd "$root" && python3 tools/kd_points.py)
want=$(cd "$root" && python3 -c 'import json, pathlib
benches = [(int(p.stem[6:]), p) for p in pathlib.Path().glob("BENCH_*.json") if p.stem[6:].isdigit()]
print(json.dumps(json.loads(max(benches)[1].read_text())["kd_points"], sort_keys=True))')
[ -n "$got" ] && [ "$got" = "$want" ] || {
    echo "error: tools/kd_points.py differs from the newest BENCH_*.json" >&2
    status=1
}
sh "$root/tools/trace_oracle.sh" || {
    echo "error: tools/trace_oracle.sh failed" >&2
    status=1
}
(cd "$root" && wc -l src/trajtransfer/*.py | tail -n 1)
exit $status
