#!/bin/sh
# Resilience contract of the study supervision layer, exercised end to end
# at the CLI:
#   1. a sweep killed -9 mid-flight (via OSIM_CRASH_POINT) and then simply
#      rerun on the same --cache-dir produces a canonical study report
#      bit-identical to an uninterrupted run: the store holds exactly the
#      scenarios that completed, and the rerun serves them from disk;
#   2. --scenario-timeout records the stopped scenario and the sweep
#      completes normally (exit 0);
#   3. --study-deadline drains the sweep, flushes a partial report and
#      exits 5;
#   4. SIGINT does the same through the graceful-shutdown handler.
# Usage: resilience_test.sh <build_dir>
set -e
BUILD="$1"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
unset OSIM_CRASH_POINT

BENCH="$BUILD/bench/fig6a_speedup"
SWEEP="--ranks 4 --iterations 2 --apps nas_cg --out-dir $OUT/bench"

# --- 1a. reference: an uninterrupted sweep ---------------------------------

"$BENCH" $SWEEP --cache-dir "$OUT/ref_cache" \
    --study-report "$OUT/ref.json" --canonical-report > /dev/null 2>&1
grep -q '"schema":"osim.study_report.canonical"' "$OUT/ref.json"
grep -q '"status":"complete"' "$OUT/ref.json"

# --- 1b. kill -9 mid-sweep, then rerun on the same store --------------------

# The crash point SIGKILLs the bench right after its second store object
# is renamed into place — two scenarios durably stored, the sweep not
# finished.
set +e
OSIM_CRASH_POINT=store.publish.renamed:2 "$BENCH" $SWEEP \
    --cache-dir "$OUT/kill_cache" > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 137 ] || { echo "crash run: expected SIGKILL (137), got $rc" >&2; exit 1; }
"$BUILD/tools/osim_cache" verify --cache-dir "$OUT/kill_cache" > /dev/null
"$BUILD/tools/osim_cache" stats --cache-dir "$OUT/kill_cache" \
    | grep -q "^objects: 2$"

# A plain rerun is the resume: it completes the sweep, and its canonical
# report is bit-identical to the uninterrupted reference.
"$BENCH" $SWEEP --cache-dir "$OUT/kill_cache" \
    --study-report "$OUT/resumed.json" --canonical-report > /dev/null 2>&1
cmp "$OUT/ref.json" "$OUT/resumed.json"

# A second rerun serves every scenario from the disk tier.
"$BENCH" $SWEEP --cache-dir "$OUT/kill_cache" \
    --study-report "$OUT/resumed2.json" > /dev/null 2>&1
grep -q '"tier":"disk"' "$OUT/resumed2.json"
grep -q '"disk_hits":3' "$OUT/resumed2.json"
if grep -q '"tier":"miss"' "$OUT/resumed2.json"; then
  echo "second rerun replayed a scenario the store holds" >&2
  exit 1
fi

# --- 2. per-scenario timeout: sweep completes, scenario reported ------------

"$BENCH" $SWEEP --scenario-timeout 0.0000001 \
    --study-report "$OUT/timeout.json" > /dev/null 2>&1
grep -q '"status":"complete"' "$OUT/timeout.json"
grep -q '"status":"timeout"' "$OUT/timeout.json"

# The standalone replay tool honors the same budget with exit 5.
"$BUILD/tools/osim_trace" --app nas_cg --ranks 4 --iterations 2 \
    --out "$OUT/cg" --quiet
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --scenario-timeout 0.0000001 > /dev/null 2> "$OUT/replay_timeout.txt"
rc=$?
set -e
[ "$rc" -eq 5 ] || { echo "replay timeout: expected exit 5, got $rc" >&2; exit 1; }
grep -q "interrupted: scenario-timeout" "$OUT/replay_timeout.txt"

# --- 3. study deadline: partial report flushed, exit 5 ----------------------

set +e
"$BENCH" $SWEEP --study-deadline 0.0000001 \
    --study-report "$OUT/deadline.json" > /dev/null 2> "$OUT/deadline.err"
rc=$?
set -e
[ "$rc" -eq 5 ] || { echo "deadline run: expected exit 5, got $rc" >&2; exit 1; }
grep -q '"status":"interrupted"' "$OUT/deadline.json"
grep -q '"status":"cancelled"' "$OUT/deadline.json"
grep -q "sweep interrupted" "$OUT/deadline.err"

# --- 4. SIGINT drains the sweep and flushes the report ----------------------

# A deliberately long sweep (any supervision flag installs the handlers);
# the signal lands mid-run and the bench must still exit 5 with a report.
"$BENCH" --ranks 32 --iterations 64 --scale 2 --out-dir "$OUT/bench" \
    --scenario-timeout 3600 --study-report "$OUT/sigint.json" \
    > /dev/null 2>&1 &
pid=$!
sleep 1
kill -INT "$pid" 2> /dev/null
set +e
wait "$pid"
rc=$?
set -e
[ "$rc" -eq 5 ] || { echo "SIGINT run: expected exit 5, got $rc" >&2; exit 1; }
test -s "$OUT/sigint.json"
grep -q '"status":"interrupted"' "$OUT/sigint.json"

echo "resilience OK"
