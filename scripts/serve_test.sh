#!/bin/sh
# End-to-end contract of the analysis service at the CLI:
#   1. submit --wait --report fetches a run report byte-identical to what
#      `osim_replay --report` writes for the same trace and flags, with
#      default and with non-default scenario flags;
#   2. a resubmit of the same scenario is served without a replay, and a
#      second client's concurrent submit shares the first's replay;
#   3. admission control refuses submits with exit 6 when the queue is
#      full, and bad requests (missing trace, out-of-range platform
#      values, --bandwidth next to a study's --bandwidths) exit 2;
#   4. poll/fetch/cancel/stats round-trip against live tickets;
#   5. a SIGKILLed worker (via OSIM_CRASH_POINT) is reaped and its job
#      retried — the client still gets its report;
#   6. a server restarted on the same store answers the scenarios it
#      stored from disk without recomputing;
#   7. SIGTERM drains the server with exit 5; the shutdown RPC exits 0,
#      and only after every worker has exited.
# Usage: serve_test.sh <build_dir>
set -e
BUILD="$1"
OUT="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null
  wait 2> /dev/null
  rm -rf "$OUT"
}
trap cleanup EXIT
unset OSIM_CRASH_POINT

SERVE="$BUILD/tools/osim_serve"
CLIENT="$BUILD/tools/osim_client"
SOCK="$OUT/osim.sock"

"$BUILD/tools/osim_trace" --app nas_cg --ranks 4 --iterations 2 \
    --out "$OUT/cg" --quiet

# --- 1. byte-identity: service report == batch report ------------------------

"$SERVE" --socket "$SOCK" --workers 2 --cache-dir "$OUT/cache" \
    2> "$OUT/serve1.log" &
SERVE_PID=$!

"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" \
    --wait --report "$OUT/via_serve.json" > "$OUT/submit.txt"
grep -q "fresh" "$OUT/submit.txt"
TICKET="$(sed -n 's/^ticket \([0-9a-f]\{32\}\) fresh$/\1/p' "$OUT/submit.txt" | head -1)"
[ -n "$TICKET" ] || { echo "no ticket in submit output" >&2; exit 1; }

"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --report "$OUT/via_batch.json" > /dev/null
cmp "$OUT/via_serve.json" "$OUT/via_batch.json"

# --- 2. dedupe: the same scenario is answered without a new replay -----------

"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" \
    > "$OUT/resubmit.txt"
grep -q "^ticket $TICKET served$" "$OUT/resubmit.txt"

# Two concurrent clients over a fresh scenario: one fresh, one shared or
# served — never two replays (the stats check below pins the count).
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.overlap_real.trace" \
    --wait > "$OUT/c1.txt" &
C1=$!
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.overlap_real.trace" \
    --wait > "$OUT/c2.txt" &
C2=$!
wait "$C1"; wait "$C2"
grep -q "done" "$OUT/c1.txt"
grep -q "done" "$OUT/c2.txt"
FRESH_COUNT="$(cat "$OUT/c1.txt" "$OUT/c2.txt" | grep -c " fresh$" || true)"
[ "$FRESH_COUNT" -le 1 ] || { echo "concurrent submits both replayed" >&2; exit 1; }

# --- 3. poll / fetch / cancel / stats ---------------------------------------

"$CLIENT" poll --socket "$SOCK" --ticket "$TICKET" | grep -q "done"
"$CLIENT" fetch --socket "$SOCK" --ticket "$TICKET" \
    | grep -q '"schema":"osim.replay_report"'
"$CLIENT" cancel --socket "$SOCK" --ticket "$TICKET" \
    | grep -q "cancelled"
# Cancel of a finished scenario is a detach; the report stays available.
"$CLIENT" fetch --socket "$SOCK" --ticket "$TICKET" > /dev/null

"$CLIENT" stats --socket "$SOCK" > "$OUT/stats.json"
grep -q '"schema":"osim.serve_stats"' "$OUT/stats.json"
grep -q '"replays_completed":2' "$OUT/stats.json"
grep -q '"root":' "$OUT/stats.json"  # store block present

# osim_cache reads the same store and emits the same stats body.
"$BUILD/tools/osim_cache" stats --cache-dir "$OUT/cache" --json \
    | grep -q '"schema":"osim.cache_stats"'

# --- 1b. byte-identity holds for a non-default spec too -----------------------

# Every scenario flag travels client -> wire -> worker and is lowered there
# exactly as osim_replay lowers it. (After the stats check above, which
# pins the replay count of sections 1 and 2.)
SPEC="--buses 3 --ports 2 --eager 0 --collectives linear --progress app"
# shellcheck disable=SC2086  # $SPEC is a list of flags and values
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" $SPEC \
    --faults 'seed=7;loss=0.02' --wait --report "$OUT/spec_serve.json" \
    > /dev/null
# shellcheck disable=SC2086
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" $SPEC \
    --faults 'seed=7;loss=0.02' --report "$OUT/spec_batch.json" > /dev/null
cmp "$OUT/spec_serve.json" "$OUT/spec_batch.json"
if cmp -s "$OUT/spec_batch.json" "$OUT/via_batch.json"; then
  echo "non-default spec rendered the default report" >&2
  exit 1
fi

# Unknown tickets are refused (exit 1), bad flags are usage errors (2).
set +e
"$CLIENT" fetch --socket "$SOCK" \
    --ticket 00000000000000000000000000000000 > /dev/null 2>&1
[ $? -eq 1 ] || { echo "unknown ticket: expected exit 1" >&2; exit 1; }
"$CLIENT" fetch --socket "$SOCK" --ticket nope > /dev/null 2>&1
[ $? -eq 2 ] || { echo "bad ticket: expected exit 2" >&2; exit 1; }
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/missing.trace" \
    > /dev/null 2>&1
[ $? -eq 2 ] || { echo "missing trace: expected exit 2" >&2; exit 1; }
# Out-of-range platform values are refused at submit, before any worker
# sees them (a worker would abort on them, and the job would be retried).
for bad in "--bandwidth 0" "--buses -1" "--ports 0" "--eager -1"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" \
      $bad > /dev/null 2> "$OUT/badvalue.txt"
  [ $? -eq 2 ] || { echo "submit $bad: expected exit 2" >&2; exit 1; }
  grep -q -- "${bad% *} must be" "$OUT/badvalue.txt" \
      || { cat "$OUT/badvalue.txt" >&2; exit 1; }
done
# A study sets each scenario's bandwidth from --bandwidths, so --bandwidth
# next to it would be ignored: a usage error, even when out of range, and
# no ticket is issued.
for bw in 0 250; do
  "$CLIENT" study --socket "$SOCK" --trace "$OUT/cg.original.trace" \
      --bandwidth "$bw" --bandwidths 125,250 > "$OUT/study_bw.txt" \
      2> "$OUT/study_bw.err"
  [ $? -eq 2 ] || { echo "study --bandwidth $bw: expected exit 2" >&2; exit 1; }
  grep -q -- "--bandwidth cannot be combined with --bandwidths" \
      "$OUT/study_bw.err" || { cat "$OUT/study_bw.err" >&2; exit 1; }
  if grep -q "^ticket" "$OUT/study_bw.txt"; then
    echo "study --bandwidth $bw issued tickets" >&2; exit 1
  fi
done
set -e
"$CLIENT" stats --socket "$SOCK" > "$OUT/stats_bad.json"
grep -q '"deaths":0' "$OUT/stats_bad.json" \
    || { echo "a bad request reached a worker" >&2; exit 1; }
grep -q '"jobs_failed":0' "$OUT/stats_bad.json"

# --- 7a. SIGTERM drains with exit 5 -----------------------------------------

kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
rc=$?
set -e
SERVE_PID=""
[ "$rc" -eq 5 ] || { echo "SIGTERM drain: expected exit 5, got $rc" >&2; exit 1; }
[ ! -e "$SOCK" ] || { echo "drained server left its socket" >&2; exit 1; }

# --- 6. restart on the same store: served from disk -------------------------

"$SERVE" --socket "$SOCK" --workers 2 --cache-dir "$OUT/cache" \
    2> "$OUT/serve2.log" &
SERVE_PID=$!
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" \
    --wait --report "$OUT/via_restart.json" > "$OUT/restart.txt"
grep -q "^ticket $TICKET served$" "$OUT/restart.txt"
cmp "$OUT/via_restart.json" "$OUT/via_batch.json"
"$CLIENT" stats --socket "$SOCK" > "$OUT/stats2.json"
grep -q '"replays_completed":0' "$OUT/stats2.json"
grep -q '"dedupe_served_store":1' "$OUT/stats2.json"

# --- 7c. no worker outlives the controller ------------------------------------

# The shutdown RPC returns from osim_serve only after every worker it
# spawned has exited and been reaped: none is left running or as a zombie.
WORKER_PIDS="$(sed -n 's/.*"pids":\[\([0-9,-]*\)\].*/\1/p' "$OUT/stats2.json" \
    | tr ',' ' ')"
[ -n "$WORKER_PIDS" ] || { echo "no worker pids in stats" >&2; exit 1; }
"$CLIENT" shutdown --socket "$SOCK" > /dev/null
wait "$SERVE_PID" || true
SERVE_PID=""
for pid in $WORKER_PIDS; do
  [ "$pid" -gt 0 ] || continue
  if kill -0 "$pid" 2> /dev/null; then
    echo "worker $pid outlived the controller" >&2
    exit 1
  fi
done

# --- 5. a SIGKILLed worker is retried; the client still gets its report -----

# The crash point fires on the second job a worker process runs. One
# worker takes the study's two jobs one at a time, so job 2 kills the
# worker that finished job 1 and must come back on the respawned one,
# where it is the first job.
OSIM_CRASH_POINT=serve.worker.job:2 "$SERVE" --socket "$SOCK" \
    --workers 1 2> "$OUT/serve3.log" &
SERVE_PID=$!
"$CLIENT" study --socket "$SOCK" --trace "$OUT/cg.overlap_ideal.trace" \
    --bandwidths 125,500 --wait > "$OUT/crash.txt"
[ "$(grep -c " done$" "$OUT/crash.txt")" -eq 2 ] || {
  echo "worker-death study did not finish both scenarios" >&2; exit 1; }
"$CLIENT" stats --socket "$SOCK" | grep -q '"deaths":1'

# --- 4. admission control: full queue refuses with exit 6 --------------------

"$CLIENT" shutdown --socket "$SOCK" > /dev/null
set +e
wait "$SERVE_PID"
rc=$?
set -e
SERVE_PID=""
[ "$rc" -eq 0 ] || { echo "shutdown RPC: expected exit 0, got $rc" >&2; exit 1; }

"$SERVE" --socket "$SOCK" --workers 1 --max-queue 0 \
    2> "$OUT/serve4.log" &
SERVE_PID=$!
set +e
"$CLIENT" submit --socket "$SOCK" --trace "$OUT/cg.original.trace" \
    > /dev/null 2> "$OUT/busy.txt"
rc=$?
set -e
[ "$rc" -eq 6 ] || { echo "busy reject: expected exit 6, got $rc" >&2; exit 1; }
grep -q "busy" "$OUT/busy.txt"

# --- 7b. the shutdown RPC exits 0 -------------------------------------------

"$CLIENT" shutdown --socket "$SOCK" > /dev/null
set +e
wait "$SERVE_PID"
rc=$?
set -e
SERVE_PID=""
[ "$rc" -eq 0 ] || { echo "final shutdown: expected exit 0, got $rc" >&2; exit 1; }

echo "serve OK"
