#!/bin/sh
# End-to-end test of the file-based CLI pipeline:
#   osim_trace -> trace files -> osim_lint (the one trace verifier)
#   -> osim_inspect / osim_replay
# Usage: pipeline_test.sh <build_dir>
set -e
BUILD="$1"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

"$BUILD/tools/osim_trace" --app nas_cg --ranks 4 --iterations 2 \
    --out "$OUT/cg" --quiet --annotated
"$BUILD/tools/osim_trace" --app pop --ranks 4 --iterations 2 \
    --out "$OUT/pop" --quiet --binary

for f in "$OUT"/cg.*.trace "$OUT"/pop.*.btrace; do
  "$BUILD/tools/osim_lint" --trace "$f" --fail-on warning
done

# Semantic verification of the transformed traces against the original.
for variant in overlap_real overlap_ideal; do
  "$BUILD/tools/osim_lint" --original "$OUT/cg.original.trace" \
      --transformed "$OUT/cg.$variant.trace" --fail-on warning
done
"$BUILD/tools/osim_lint" --original "$OUT/pop.original.btrace" \
    --transformed "$OUT/pop.overlap_ideal.btrace" --fail-on warning

# Machine-readable lint: the JSON document carries the pinned schema and
# zero errors on app traces, any --jobs value is byte-identical to
# serial, and a warm --cache-dir rerun is served from the store with
# byte-identical output.
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" --format json \
    > "$OUT/lint1.json"
grep -q '"schema":"osim.lint_report"' "$OUT/lint1.json"
grep -q '"errors":0' "$OUT/lint1.json"
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" --format json \
    --jobs 4 > "$OUT/lint4.json"
cmp "$OUT/lint1.json" "$OUT/lint4.json"
LINTCACHE="$OUT/lintcache"
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" --format json \
    --cache-dir "$LINTCACHE" > "$OUT/lint_cold.json" 2> "$OUT/lint_cold.err"
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" --format json \
    --cache-dir "$LINTCACHE" > "$OUT/lint_warm.json" 2> "$OUT/lint_warm.err"
cmp "$OUT/lint_cold.json" "$OUT/lint_warm.json"
grep -q "served from" "$OUT/lint_warm.err"
if grep -q "served from" "$OUT/lint_cold.err"; then
  echo "cold lint claimed a cache hit" >&2
  exit 1
fi

# A semantically broken trace must be rejected with a matching diagnostic.
cat > "$OUT/broken.trace" <<TRC
#OSIM-TRACE v1
meta app broken
meta ranks 2
meta mips 1000
rank 0
s 1 7 64
rank 1
c 100
TRC
if "$BUILD/tools/osim_lint" --trace "$OUT/broken.trace" \
    > "$OUT/broken.txt" 2>&1; then
  echo "osim_lint accepted a broken trace" >&2
  exit 1
fi
grep -q "unmatched send" "$OUT/broken.txt"

# One structural checker (lint::check_structure) gates osim_replay,
# osim_inspect and osim_lint alike. A receive buffer larger than its send
# is the replayer's matching rule, so that trace replays...
cat > "$OUT/bigrecv.trace" <<TRC
#OSIM-TRACE v1
meta app bigrecv
meta ranks 2
meta mips 1000
rank 0
s 1 7 512
rank 1
r 0 7 1024
TRC
"$BUILD/tools/osim_replay" --trace "$OUT/bigrecv.trace" > "$OUT/bigrecv.txt"
grep -q "makespan:" "$OUT/bigrecv.txt"

# ...a collective rooted at a rank the trace does not have is rejected
# (exit 1) by the replayer and by osim_lint, naming the record...
cat > "$OUT/badroot.trace" <<TRC
#OSIM-TRACE v1
meta app badroot
meta ranks 2
meta mips 1000
rank 0
g bcast 9 64 0
rank 1
g bcast 9 64 0
TRC
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/badroot.trace" \
    > /dev/null 2> "$OUT/badroot_replay.txt"
replay_rc=$?
"$BUILD/tools/osim_lint" --trace "$OUT/badroot.trace" \
    > "$OUT/badroot_lint.txt" 2>&1
lint_rc=$?
set -e
if [ "$replay_rc" -ne 1 ] || [ "$lint_rc" -ne 1 ]; then
  echo "bad collective root: expected exit 1 (replay, lint), got" \
       "$replay_rc, $lint_rc" >&2
  exit 1
fi
grep -q "error \[collectives\] rank 0 record 0: collective root rank 9" \
    "$OUT/badroot_replay.txt"
grep -q "error \[collectives\] rank 0 record 0: collective root rank 9" \
    "$OUT/badroot_lint.txt"

# ...and osim_lint and the osim_inspect summary report an unmatched send
# by its record, not with a one-line summary.
for tool in osim_lint osim_inspect; do
  set +e
  "$BUILD/tools/$tool" --trace "$OUT/broken.trace" \
      > "$OUT/broken_$tool.txt" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 1 ] || { echo "$tool unmatched send: expected exit 1, got $rc" >&2; exit 1; }
  grep -q "error \[match\] rank 0 record 0: unmatched send" \
      "$OUT/broken_$tool.txt"
done

# 80k waits on requests no record issues: the requests pass tells "posted
# later" from "never posted" by a binary search, not a scan of the rest of
# the stream per wait (quadratic: seconds here, minutes at 300k).
{
  printf '#OSIM-TRACE v1\nmeta app waits\nmeta ranks 1\nmeta mips 1000\nrank 0\n'
  awk 'BEGIN { for (i = 0; i < 80000; i++) print "w " i }'
} > "$OUT/waits.trace"
set +e
"$BUILD/tools/osim_lint" --trace "$OUT/waits.trace" > "$OUT/waits.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "lint unissued waits: expected exit 1, got $rc" >&2; exit 1; }
grep -q "wait on unknown request" "$OUT/waits.txt"

# Platform file round trip through the replay tool.
cat > "$OUT/platform.cfg" <<CFG
nodes 4
bandwidth_mbps 250
latency_us 4
buses 6
CFG

"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" --per-rank > "$OUT/original.txt"
"$BUILD/tools/osim_replay" --trace "$OUT/cg.overlap_real.trace" \
    --platform "$OUT/platform.cfg" --prv "$OUT/run" > "$OUT/overlap.txt"

grep -q "makespan:" "$OUT/original.txt"
grep -q "parallel efficiency" "$OUT/original.txt"
test -s "$OUT/run.prv"
test -s "$OUT/run.pcf"
test -s "$OUT/run.row"

# Structured run report: valid file with the expected schema marker and
# the wait-time attribution block.
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" --report "$OUT/report.json" \
    > "$OUT/report.txt"
test -s "$OUT/report.json"
grep -q '"schema":"osim.replay_report"' "$OUT/report.json"
grep -q '"wait_attribution"' "$OUT/report.json"
grep -q '"occupancy"' "$OUT/report.json"
# The run report embeds the trace's lint block next to the replay.
grep -q '"lint":{"schema":"osim.lint_report"' "$OUT/report.json"

# Size budget of the lint block: the overlap advisories are collapsed to
# per-rank counts plus a few exemplars, so every bundled app's 64-rank
# overlap_real run report carries at most 64 KB of lint (the block is the
# report's last member).
for app in sweep3d pop alya specfem3d nas_bt nas_cg; do
  "$BUILD/tools/osim_trace" --app "$app" --ranks 64 --iterations 3 \
      --out "$OUT/budget_$app" --quiet --binary
  "$BUILD/tools/osim_replay" --trace "$OUT/budget_$app.overlap_real.btrace" \
      --report "$OUT/budget_$app.json" > /dev/null
  total="$(wc -c < "$OUT/budget_$app.json")"
  start="$(grep -o -b '"lint":{"schema"' "$OUT/budget_$app.json" | cut -d: -f1)"
  [ -n "$start" ] || { echo "$app: report has no lint block" >&2; exit 1; }
  lint_bytes=$((total - start))
  [ "$lint_bytes" -le 65536 ] || {
    echo "$app overlap_real@64: lint block is $lint_bytes bytes (> 64 KB)" >&2
    exit 1; }
done

# Memory budget of lint: the happens-before machine keeps live state only
# (reference-counted snapshots, clocks only where a pass reads them), so
# sweep3d's 256-rank overlap_real trace lints in at most 96 MB of peak RSS
# (about 36 MB on a 4-core x86-64 VM; 172 MB when every join's snapshot
# was kept). Sanitized builds shadow every allocation, so there only the
# counter is checked.
"$BUILD/tools/osim_trace" --app sweep3d --ranks 256 --iterations 8 \
    --out "$OUT/mem_sweep3d" --quiet --binary
"$BUILD/tools/osim_lint" --trace "$OUT/mem_sweep3d.overlap_real.btrace" \
    --perf-json "$OUT/mem_lint.json" > /dev/null
if grep -q '^OSIM_SANITIZE:STRING=.' "$BUILD/CMakeCache.txt" 2>/dev/null; then
  RSS_BUDGET_KB=0
else
  RSS_BUDGET_KB=98304
fi
python3 - "$OUT/mem_lint.json" "$RSS_BUDGET_KB" <<'PY'
import json, sys
record = json.load(open(sys.argv[1]))
budget = int(sys.argv[2])
assert record['hb_peak_live_snapshots'] > 0, record
assert budget == 0 or record['max_rss_kb'] <= budget, (
    'osim_lint sweep3d overlap_real@256: max_rss_kb %d > %d'
    % (record['max_rss_kb'], budget))
PY

# Binary traces replay too.
"$BUILD/tools/osim_replay" --trace "$OUT/pop.overlap_ideal.btrace" \
    --bandwidth 250 --latency 4 > "$OUT/pop.txt"
grep -q "makespan:" "$OUT/pop.txt"

# --- CLI error-path contract (common/exit_codes.hpp) ------------------------

# Unknown flag: usage error (exit 2) with a nearest-flag suggestion.
set +e
"$BUILD/tools/osim_replay" --tracee "$OUT/cg.original.trace" \
    > /dev/null 2> "$OUT/badflag.txt"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "unknown flag: expected exit 2, got $rc" >&2; exit 1; }
grep -q "did you mean --trace?" "$OUT/badflag.txt"

# Malformed flag value is a usage error too.
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" --buses lots \
    > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "bad value: expected exit 2, got $rc" >&2; exit 1; }

# Out-of-range platform values are usage errors, not aborts in the network
# model (exit 134) or a silent wrap (--eager -1 = everything eager).
for bad in "--bandwidth 0" "--bandwidth -5" "--latency -1" "--buses -1" \
           "--ports 0" "--eager -1"; do
  set +e
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" $bad \
      > /dev/null 2> "$OUT/badrange.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "$bad: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "${bad% *} must be" "$OUT/badrange.txt" \
      || { cat "$OUT/badrange.txt" >&2; exit 1; }
done

# A platform file sets the whole network: a network flag next to
# --platform would be ignored, so it is a usage error naming both flags,
# in range or not, in osim_replay and osim_inspect --fingerprint alike.
for bad in "--bandwidth 0 --buses -4" "--bandwidth 250" "--latency 4" \
           "--buses 6" "--ports 0" "--eager -1"; do
  for tool in "osim_replay" "osim_inspect --fingerprint"; do
    set +e
    # shellcheck disable=SC2086  # $tool and $bad are words and flags
    "$BUILD/tools/"$tool --trace "$OUT/cg.original.trace" \
        --platform "$OUT/platform.cfg" $bad > /dev/null 2> "$OUT/platbad.txt"
    rc=$?
    set -e
    [ "$rc" -eq 2 ] || { echo "$tool --platform $bad: expected exit 2, got $rc" >&2; exit 1; }
    grep -q -- "${bad%% *} cannot be combined with --platform" \
        "$OUT/platbad.txt" || { cat "$OUT/platbad.txt" >&2; exit 1; }
  done
done

# --jobs runs osim_replay's report lint passes; a negative count is a usage
# error, as in osim_lint. So is an eager threshold below osim_lint's -1
# ("not set") sentinel.
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" --jobs -3 \
    > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "replay --jobs -3: expected exit 2, got $rc" >&2; exit 1; }
set +e
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" \
    --eager-threshold -7 > /dev/null 2> "$OUT/lint_eager.txt"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "lint --eager-threshold -7: expected exit 2, got $rc" >&2; exit 1; }
grep -q -- "--eager-threshold must be" "$OUT/lint_eager.txt"

# The tracing tools' integer flags are range-checked (exit 2, naming the
# flag): an out-of-range chunk count or scale used to abort in the overlap
# transform or the tracer (exit 134), --chunks 0 silently wrote unchunked
# traces and a rank count past INT32_MAX silently wrapped.
for bad in "--chunks -2" "--chunks 300" "--scale 0" "--chunks 0" \
           "--ranks 4294967300"; do
  set +e
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$BUILD/tools/osim_trace" --app nas_cg --ranks 4 --iterations 2 \
      --out "$OUT/badtrace" --quiet $bad > /dev/null 2> "$OUT/badtrace.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "osim_trace $bad: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "${bad% *} must be in" "$OUT/badtrace.txt" \
      || { cat "$OUT/badtrace.txt" >&2; exit 1; }
done
set +e
"$BUILD/tools/osim_overlap" --annotated "$OUT/cg.ann" \
    --out "$OUT/badchunks.trace" --chunks -3 > /dev/null 2> "$OUT/badchunks.txt"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "osim_overlap --chunks -3: expected exit 2, got $rc" >&2; exit 1; }
grep -q -- "--chunks must be in" "$OUT/badchunks.txt"

# The benches range-check the same flags: --chunks -2, --chunks 300 and
# --scale 0 used to abort (exit 134) and --chunks 0 printed speedups of 1.
for bad in "--chunks -2" "--chunks 300" "--scale 0" "--chunks 0" \
           "--ranks 0" "--iterations 0"; do
  set +e
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$BUILD/bench/fig6a_speedup" --ranks 4 --apps nas_cg \
      --out-dir "$OUT/bench" $bad > /dev/null 2> "$OUT/badbench.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "fig6a_speedup $bad: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "${bad% *} must be in" "$OUT/badbench.txt" \
      || { cat "$OUT/badbench.txt" >&2; exit 1; }
done

# The study journal is gone (a rerun on the same --cache-dir is the
# resume), and so are thread-mode service workers, the memory-tier
# budget, the service's same-trace batching, its loopback TCP listener
# and every trace verifier but osim_lint: their flags are unknown flags,
# never silently ignored.
for case in "bench/fig6a_speedup --resume" "bench/fig6a_speedup --journal" \
            "bench/fig6a_speedup --memory-budget 64M" \
            "tools/osim_serve --socket $OUT/none.sock --journal" \
            "tools/osim_serve --socket $OUT/none.sock --worker-mode thread" \
            "tools/osim_serve --socket $OUT/none.sock --max-batch 2" \
            "tools/osim_serve --socket $OUT/none.sock --tcp-port 7077" \
            "tools/osim_client stats --tcp-port 7077" \
            "tools/osim_cache stats --cache-dir $OUT/none --journals" \
            "tools/osim_inspect --trace $OUT/cg.original.trace --validate" \
            "tools/osim_inspect --trace $OUT/cg.original.trace --validate-only" \
            "tools/osim_trace --ranks 4 --out $OUT/nolint --quiet --lint"; do
  set +e
  # shellcheck disable=SC2086  # $case is a binary plus its flags
  timeout 20 "$BUILD/"$case > /dev/null 2> "$OUT/removed_flag.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "$case: expected exit 2, got $rc" >&2; exit 1; }
  flag="${case##*--}"
  grep -q -- "unknown flag --${flag%% *}" "$OUT/removed_flag.txt" \
      || { cat "$OUT/removed_flag.txt" >&2; exit 1; }
done

# The service's integer flags are range-checked before anything starts,
# because each bad value would otherwise be misread silently: --workers 0
# and --workers 4294967297 would run one worker, --max-retries -1 would
# fail a job at its first worker death and --report-cache -1 would evict
# every finished report from memory. (A server that wrongly starts is
# stopped by the timeout and fails the check.)
for case in "tools/osim_serve --workers 0" "tools/osim_serve --workers -1" \
            "tools/osim_serve --workers 4294967297" \
            "tools/osim_serve --max-retries -1" \
            "tools/osim_serve --max-queue -1" \
            "tools/osim_serve --max-inflight-bytes -1" \
            "tools/osim_serve --report-cache -1" \
            "tools/osim_client stats --connect-retry-ms -1" \
            "tools/osim_client stats --connect-retry-ms 4294967297"; do
  set +e
  # shellcheck disable=SC2086  # $case is a binary plus its flags
  timeout 20 "$BUILD/"$case --socket "$OUT/none.sock" \
      > /dev/null 2> "$OUT/bad_serve_flag.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "$case: expected exit 2, got $rc" >&2; exit 1; }
  flag="${case##*--}"
  grep -q -- "--${flag%% *} must be in" "$OUT/bad_serve_flag.txt" \
      || { cat "$OUT/bad_serve_flag.txt" >&2; exit 1; }
done

# Truncated binary trace: strict read refuses with exit 3...
head -c 40 "$OUT/pop.original.btrace" > "$OUT/pop.cut.btrace"
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/pop.cut.btrace" \
    > /dev/null 2> "$OUT/cut.txt"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "truncated strict: expected exit 3, got $rc" >&2; exit 1; }
grep -q "recover" "$OUT/cut.txt"

# ...and osim_lint triages it as damaged-but-salvageable: the damage
# report goes to stderr, so a json report on stdout still parses.
for format in text json; do
  set +e
  "$BUILD/tools/osim_lint" --trace "$OUT/pop.cut.btrace" --format "$format" \
      > "$OUT/triage.$format" 2> "$OUT/triage.err"
  rc=$?
  set -e
  [ "$rc" -eq 4 ] || { echo "lint salvage ($format): expected exit 4, got $rc" >&2; exit 1; }
  grep -q "trace damage report" "$OUT/triage.err"
done
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$OUT/triage.json"

# A damaged footer (flipped CRC byte) still salvages every record, so
# --recover replays it and reports the damage through exit 4.
cp "$OUT/pop.original.btrace" "$OUT/pop.crc.btrace"
python3 - "$OUT/pop.crc.btrace" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[-1] ^= 0x40
open(path, 'wb').write(data)
PY
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/pop.crc.btrace" --recover \
    > "$OUT/salvaged.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 4 ] || { echo "salvaged replay: expected exit 4, got $rc" >&2; exit 1; }
grep -q "makespan:" "$OUT/salvaged.txt"

# Bytes after a valid integrity footer are damage: osim_lint reports them
# (exit 4, every record salvaged, on stderr) and the strict reader refuses
# the file (exit 3).
cp "$OUT/pop.original.btrace" "$OUT/pop.tail.btrace"
printf 'fourteen bytes' >> "$OUT/pop.tail.btrace"
set +e
"$BUILD/tools/osim_lint" --trace "$OUT/pop.tail.btrace" --format json \
    > "$OUT/tail.json" 2> "$OUT/tail.txt"
rc=$?
set -e
[ "$rc" -eq 4 ] || { echo "trailing bytes lint: expected exit 4, got $rc" >&2; exit 1; }
grep -q "14 trailing byte(s) after the integrity footer" "$OUT/tail.txt"
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$OUT/tail.json"
# Pair mode salvages each trace the same way.
set +e
"$BUILD/tools/osim_lint" --original "$OUT/pop.original.btrace" \
    --transformed "$OUT/pop.tail.btrace" > /dev/null 2> "$OUT/tail_pair.txt"
rc=$?
set -e
[ "$rc" -eq 4 ] || { echo "trailing bytes lint pair: expected exit 4, got $rc" >&2; exit 1; }
grep -q "14 trailing byte(s) after the integrity footer" "$OUT/tail_pair.txt"
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/pop.tail.btrace" > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "trailing bytes replay: expected exit 3, got $rc" >&2; exit 1; }

# Garbage input is unreadable even in recover mode: exit 3.
printf 'not a trace at all\n' > "$OUT/garbage.trace"
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/garbage.trace" --recover \
    > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "garbage recover: expected exit 3, got $rc" >&2; exit 1; }

# So is a file that cannot be opened, in recover mode as in the strict read.
set +e
"$BUILD/tools/osim_replay" --trace "$OUT/no-such.trace" --recover \
    > /dev/null 2> "$OUT/missing.txt"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "missing recover: expected exit 3, got $rc" >&2; exit 1; }
grep -q "cannot open" "$OUT/missing.txt"

# --- input-file contract (common/line_cursor.hpp) ---------------------------

# A value a trace, an annotated trace or a platform file cannot hold is a
# malformed input: exit 3 for a trace (osim_replay, osim_lint and both
# osim_inspect modes), 1 for an annotated trace (osim_overlap) or a platform
# file, with a message naming the key (and the line). These used to abort
# (134) on NaN, or to run (0) on infinities and wrapped integers.
expect_input_error() {  # <exit code> <text the message names> <command...>
  want="$1"
  key="$2"
  shift 2
  set +e
  "$@" > "$OUT/contract.txt" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq "$want" ] || {
    echo "$*: expected exit $want, got $rc" >&2; cat "$OUT/contract.txt" >&2
    exit 1; }
  grep -q -- "$key" "$OUT/contract.txt" || {
    echo "$*: message does not name '$key'" >&2; cat "$OUT/contract.txt" >&2
    exit 1; }
}
for bad in "1 nan c 100:line 4: mips" "1 inf c 100:line 4: mips" \
           "3000000000 1000 c 100:line 3: ranks" \
           "4294967298 1000 c 100:line 3: ranks" \
           "2 1000 s 4294967297 7 64:line 6: dest" \
           "2 1000 g bcast 4294967297 8 0:line 6: root"; do
  set -- ${bad%%:*}
  ranks="$1"
  mips="$2"
  shift 2
  printf '#OSIM-TRACE v1\nmeta app x\nmeta ranks %s\nmeta mips %s\nrank 0\n%s\n' \
      "$ranks" "$mips" "$*" > "$OUT/contract.trace"
  for tool in osim_replay osim_lint osim_inspect "osim_inspect --fingerprint"; do
    # shellcheck disable=SC2086  # $tool is a tool and its mode flag
    expect_input_error 3 "${bad#*:}" "$BUILD/tools/"$tool \
        --trace "$OUT/contract.trace"
  done
done
for bad in "mips nan:line 4: mips" "ranks 4294967298:line 3: ranks"; do
  sed "s/^meta ${bad%% *} .*/meta ${bad%%:*}/" "$OUT/cg.ann" \
      > "$OUT/contract.ann"
  expect_input_error 1 "${bad#*:}" "$BUILD/tools/osim_overlap" \
      --annotated "$OUT/contract.ann" --out "$OUT/contract_out.trace"
done
for bad in "latency_us inf" "latency_us nan" "bandwidth_mbps nan" \
           "bandwidth_mbps inf" "overhead_us nan" "relative_cpu_speed nan" \
           "relative_cpu_speed inf" "fabric_links nan" "nodes 4294967300" \
           "buses 4294967297" "input_ports 3000000000" "nodes 0"; do
  { cat "$OUT/platform.cfg"; echo "$bad"; } > "$OUT/contract.cfg"
  for tool in osim_replay "osim_inspect --fingerprint"; do
    # shellcheck disable=SC2086  # $tool is a tool and its mode flag
    expect_input_error 1 "line 5: ${bad% *}" "$BUILD/tools/"$tool \
        --trace "$OUT/cg.original.trace" --platform "$OUT/contract.cfg"
  done
done

# osim_lint and osim_inspect exit 3 on a trace they cannot read, in every
# mode, as osim_replay does.
for tool in osim_lint osim_inspect "osim_inspect --fingerprint"; do
  for case in "missing.trace:cannot open" "garbage.trace:header"; do
    # shellcheck disable=SC2086  # $tool is a tool and its mode flag
    expect_input_error 3 "${case#*:}" "$BUILD/tools/"$tool \
        --trace "$OUT/${case%%:*}"
  done
done
for case in "missing.trace:cannot open" "garbage.trace:header"; do
  expect_input_error 3 "${case#*:}" "$BUILD/tools/osim_lint" \
      --original "$OUT/cg.original.trace" --transformed "$OUT/${case%%:*}"
done

# Wall-clock budgets saturate: a budget too large for the clock runs to
# completion; one that is not a finite number is a usage error.
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --scenario-timeout 1e300 | grep -q "makespan:"
for bad in nan inf; do
  expect_input_error 2 "scenario-timeout" "$BUILD/tools/osim_replay" \
      --trace "$OUT/cg.original.trace" --scenario-timeout "$bad"
done

# Fault injection smoke: counters reach the run report, and faults off
# means no fault section.
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" \
    --faults 'seed=7;loss=0.05,timeout=20us' \
    --report "$OUT/faulty.json" > "$OUT/faulty.txt"
grep -q "faults: seed=7" "$OUT/faulty.txt"
grep -q '"faults"' "$OUT/faulty.json"
grep -q '"retransmits"' "$OUT/faulty.json"
if grep -q '"faults"' "$OUT/report.json"; then
  echo "fault-free report contains a fault section" >&2
  exit 1
fi

# --- persistent scenario store (osim_cache, --cache-dir) --------------------

# Cold replay populates the store; a warm rerun of the identical scenario
# is served from the disk tier with bit-identical stdout.
CACHE="$OUT/cache"
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" --cache-dir "$CACHE" \
    > "$OUT/cache_cold.txt" 2> "$OUT/cache_cold.err"
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" --cache-dir "$CACHE" \
    > "$OUT/cache_warm.txt" 2> "$OUT/cache_warm.err"
cmp "$OUT/cache_cold.txt" "$OUT/cache_warm.txt"
grep -q "served from" "$OUT/cache_warm.err"
if grep -q "served from" "$OUT/cache_cold.err"; then
  echo "cold replay claimed a cache hit" >&2
  exit 1
fi

# A store that cannot be written costs the write-behind, never the run:
# with tmp/ replaced by a plain file, a cold replay warns once, prints its
# makespan and exits 0.
BROKEN="$OUT/broken_store"
mkdir -p "$BROKEN/objects"
: > "$BROKEN/tmp"
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --platform "$OUT/platform.cfg" --cache-dir "$BROKEN" \
    > "$OUT/broken_store.txt" 2> "$OUT/broken_store.err" \
    || { cat "$OUT/broken_store.err" >&2; exit 1; }
cmp "$OUT/cache_cold.txt" "$OUT/broken_store.txt"
[ "$(grep -c "warning: scenario store write failed" \
     "$OUT/broken_store.err")" -eq 1 ] \
    || { cat "$OUT/broken_store.err" >&2; exit 1; }

# Only --cache-dir names a store; an exported $OSIM_CACHE_DIR is inert.
# A bench neither creates nor fills it, and osim_cache without
# --cache-dir is a usage error.
OSIM_CACHE_DIR="$OUT/envstore" "$BUILD/bench/fig6a_speedup" --ranks 4 \
    --iterations 1 --apps nas_cg --out-dir "$OUT/bench" \
    --study-report "$OUT/envstore_report.json" > /dev/null 2>&1
grep -q '"disk_hits":0' "$OUT/envstore_report.json"
if [ -e "$OUT/envstore" ]; then
  echo "\$OSIM_CACHE_DIR opened a store" >&2
  exit 1
fi
set +e
OSIM_CACHE_DIR="$CACHE" "$BUILD/tools/osim_cache" stats \
    > /dev/null 2> "$OUT/nostore.txt"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "osim_cache without --cache-dir: expected exit 2, got $rc" >&2; exit 1; }
grep -q "no store: pass --cache-dir" "$OUT/nostore.txt" \
    || { cat "$OUT/nostore.txt" >&2; exit 1; }

# osim_inspect --fingerprint prints the scenario's content address and
# finds the object the warm replay was served from.
"$BUILD/tools/osim_inspect" --trace "$OUT/cg.original.trace" --fingerprint \
    --platform "$OUT/platform.cfg" --cache-dir "$CACHE" > "$OUT/fp.txt"
grep -q "(present)" "$OUT/fp.txt"
# --platform alone addresses the same scenario it always has: rejecting
# network flags next to it changed no fingerprint.
grep -q "^4357bd178a21fecc07e5fdcb8f2ac303$" "$OUT/fp.txt" \
    || { cat "$OUT/fp.txt" >&2; exit 1; }

# The scenario flags are one surface (serve::ScenarioSpec), registered and
# lowered the same way by both tools: osim_inspect addresses the object a
# replay with every non-default scenario flag stored...
SPEC="--buses 3 --ports 2 --eager 0 --collectives linear --progress app"
# shellcheck disable=SC2086  # $SPEC is a list of flags and values
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" $SPEC \
    --faults 'seed=7;loss=0.02' --cache-dir "$OUT/speccache" > /dev/null
# shellcheck disable=SC2086
"$BUILD/tools/osim_inspect" --trace "$OUT/cg.original.trace" --fingerprint \
    $SPEC --faults 'seed=7;loss=0.02' --cache-dir "$OUT/speccache" \
    > "$OUT/fp_spec.txt"
grep -q "(present)" "$OUT/fp_spec.txt"

# ...and rejects the out-of-range values osim_replay rejects (exit 2).
for bad in "--buses -1" "--eager -5" "--bandwidth 0"; do
  set +e
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$BUILD/tools/osim_inspect" --trace "$OUT/cg.original.trace" \
      --fingerprint $bad > /dev/null 2> "$OUT/fp_bad.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "--fingerprint $bad: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "${bad% *} must be" "$OUT/fp_bad.txt" \
      || { cat "$OUT/fp_bad.txt" >&2; exit 1; }
done

# Without --fingerprint no scenario is read: every scenario flag,
# --platform and --cache-dir is a usage error naming the flag, valid value
# or not, instead of being accepted and ignored.
for bad in "--bandwidth 0 --faults bogus" \
           "--buses -4 --cache-dir /nonexistent" \
           "--progress app" "--platform $OUT/platform.cfg" \
           "--cache-dir $OUT/speccache"; do
  set +e
  # shellcheck disable=SC2086  # $bad is a list of flags and values
  "$BUILD/tools/osim_inspect" --trace "$OUT/cg.original.trace" $bad \
      > /dev/null 2> "$OUT/inspect_bad.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "osim_inspect $bad: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "${bad%% *} only applies with --fingerprint" \
      "$OUT/inspect_bad.txt" || { cat "$OUT/inspect_bad.txt" >&2; exit 1; }
done

# Warm/cold bench round trip: the second run reports every scenario from
# the disk tier, with makespans bit-identical to the cold run.
"$BUILD/bench/fig6a_speedup" --ranks 4 --iterations 2 --apps nas_cg \
    --out-dir "$OUT/bench" --cache-dir "$CACHE" \
    --study-report "$OUT/study_cold.json" > /dev/null 2>&1
"$BUILD/bench/fig6a_speedup" --ranks 4 --iterations 2 --apps nas_cg \
    --out-dir "$OUT/bench" --cache-dir "$CACHE" \
    --study-report "$OUT/study_warm.json" > /dev/null 2>&1
grep -q '"misses":0' "$OUT/study_warm.json"
grep -q '"tier":"disk"' "$OUT/study_warm.json"
python3 - "$OUT/study_cold.json" "$OUT/study_warm.json" <<'PY'
import json, sys
cold, warm = (json.load(open(p)) for p in sys.argv[1:3])
key = lambda s: (s['label'], s['fingerprint'])
cm = {key(s): s['makespan_s'] for s in cold['scenarios']}
wm = {key(s): s['makespan_s'] for s in warm['scenarios']}
assert cm == wm, 'warm makespans differ from cold'
assert all(s['tier'] == 'disk' for s in warm['scenarios'])
labels = [s['label'] for s in warm['scenarios']]
assert labels == sorted(labels), 'scenarios not sorted by label'
PY

# The populated store verifies clean, survives a gc to a tight budget, and
# still verifies clean afterwards.
"$BUILD/tools/osim_cache" verify --cache-dir "$CACHE" > /dev/null
"$BUILD/tools/osim_cache" stats --cache-dir "$CACHE" | grep -q "objects:"
"$BUILD/tools/osim_cache" gc --cache-dir "$CACHE" --max-bytes 1024 \
    > /dev/null
"$BUILD/tools/osim_cache" verify --cache-dir "$CACHE" > /dev/null

# Each osim_cache command reads only its own flags: a flag that belongs to
# another command (or to none, like --jobs) and a negative budget are usage
# errors naming the flag, not silently ignored or wrapped to 2^64 - N.
for case in "gc --max-bytes 1024 --max-objects -5|--max-objects" \
            "gc --max-bytes -1|--max-bytes" \
            "verify --max-bytes 7 --json|--json does not apply" \
            "stats --max-objects 3|--max-objects" \
            "stats --json --jobs 2|--jobs"; do
  args="${case%|*}"
  flag="${case#*|}"
  set +e
  # shellcheck disable=SC2086  # $args is a command plus its flags
  "$BUILD/tools/osim_cache" $args --cache-dir "$CACHE" \
      > /dev/null 2> "$OUT/cache_bad.txt"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || { echo "osim_cache $args: expected exit 2, got $rc" >&2; exit 1; }
  grep -q -- "$flag" "$OUT/cache_bad.txt" \
      || { cat "$OUT/cache_bad.txt" >&2; exit 1; }
done
"$BUILD/tools/osim_cache" verify --cache-dir "$CACHE" > /dev/null

# Every tool that accepts --perf-json writes a record naming itself (the
# flag used to be accepted and ignored by osim_cache and osim_perf).
check_perf_record() {
  python3 - "$1" "$2" <<'PY'
import json, sys
record = json.load(open(sys.argv[1]))
assert record['schema'] == 'osim-perf-record-v1', record
assert record['tool'] == sys.argv[2], (record['tool'], sys.argv[2])
assert record['wall_s'] >= 0.0
PY
}
"$BUILD/tools/osim_replay" --trace "$OUT/cg.original.trace" \
    --perf-json "$OUT/perf_replay.json" > /dev/null
check_perf_record "$OUT/perf_replay.json" osim_replay
"$BUILD/tools/osim_lint" --trace "$OUT/cg.original.trace" \
    --perf-json "$OUT/perf_lint.json" > /dev/null
check_perf_record "$OUT/perf_lint.json" osim_lint
for cmd in stats verify; do
  "$BUILD/tools/osim_cache" $cmd --cache-dir "$CACHE" \
      --perf-json "$OUT/perf_cache_$cmd.json" > /dev/null
  check_perf_record "$OUT/perf_cache_$cmd.json" osim_cache
done
"$BUILD/tools/osim_cache" gc --cache-dir "$CACHE" --max-bytes 1024 \
    --perf-json "$OUT/perf_cache_gc.json" > /dev/null
check_perf_record "$OUT/perf_cache_gc.json" osim_cache
"$BUILD/tools/osim_perf" --repetitions 1 --ranks 4 --iterations 1 \
    --sweep-points 1 --out "$OUT/bench_replay.json" \
    --perf-json "$OUT/perf_perf.json" > /dev/null 2>&1
check_perf_record "$OUT/perf_perf.json" osim_perf
# osim_perf times uncached work only: a store directory is a usage error.
set +e
"$BUILD/tools/osim_perf" --cache-dir "$OUT/nostore" > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "osim_perf --cache-dir: expected exit 2, got $rc" >&2; exit 1; }

# Offline transformation from the annotated trace reproduces the
# tracer-emitted original trace byte for byte.
"$BUILD/tools/osim_overlap" --annotated "$OUT/cg.ann" --mode original \
    --out "$OUT/cg.re.trace"
cmp "$OUT/cg.re.trace" "$OUT/cg.original.trace"
"$BUILD/tools/osim_overlap" --annotated "$OUT/cg.ann" --mode overlap \
    --chunks 8 --pattern ideal --out "$OUT/cg.i8.trace"
"$BUILD/tools/osim_lint" --trace "$OUT/cg.i8.trace"
"$BUILD/tools/osim_replay" --trace "$OUT/cg.i8.trace" --buses 6 \
    --critical-path | grep -q "critical path"

echo "pipeline OK"
