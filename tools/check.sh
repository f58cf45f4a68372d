#!/bin/sh
# Pre-merge check for a change that claims to keep behaviour bit for bit: the
# fast test loop (every test but tests/test_acceptance.py), then the behaviour
# oracle tools/trace_oracle.sh.  Both always run; exits 1 if either fails,
# after naming it.  The last line is the src/ Python line count (wc -l), the
# measure of the "same behaviour from less code" aim.
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
sh "$root/tools/trace_oracle.sh" || {
    echo "error: tools/trace_oracle.sh failed" >&2
    status=1
}
(cd "$root" && wc -l src/trajtransfer/*.py | tail -n 1)
exit $status
