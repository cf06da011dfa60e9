#!/bin/sh
# Static checks plus a sanitizer build-and-test pass:
#
#   1. greps: nothing in bench/ or src/analysis/ may call
#      dimemas::replay directly — every replay goes through the
#      pipeline::ReplayContext / Study API; no deprecated analysis shims;
#      no little-endian byte-shift loops outside common/bytes.hpp; no
#      std::getline in the trace, annotated and platform file readers;
#   2. full build under AddressSanitizer + UndefinedBehaviorSanitizer (or
#      ThreadSanitizer with 'thread', or standalone UBSan with 'undefined'
#      as the second argument) and the full test suite;
#   3. a dedicated ThreadSanitizer pass over pipeline_test, the one
#      genuinely multithreaded consumer besides mpisim (skipped in
#      'undefined' mode, which exists to catch UB that ASan's presence can
#      mask — the tsan pass belongs to the other modes).
#
#   scripts/check.sh [build-dir] [address|thread|undefined]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
MODE="${2:-address}"

case "$MODE" in
  address)   SANITIZE="address;undefined" ;;
  thread)    SANITIZE="thread" ;;
  undefined) SANITIZE="undefined" ;;
  *) echo "usage: $0 [build-dir] [address|thread|undefined]" >&2; exit 2 ;;
esac

# Layering: benches and analysis must use the pipeline API, never the raw
# replay entry point (see DESIGN.md "API conventions").
if grep -rn --include='*.cpp' --include='*.hpp' -F 'dimemas::replay(' \
     "$ROOT/bench" "$ROOT/src/analysis"; then
  echo "error: direct dimemas::replay call in bench/ or src/analysis/;" \
       "route it through pipeline::ReplayContext / Study" >&2
  exit 1
fi
if grep -rn --include='*.cpp' --include='*.hpp' -F 'dimemas/replay.hpp' \
     "$ROOT/bench" "$ROOT/src/analysis"; then
  echo "error: dimemas/replay.hpp included from bench/ or src/analysis/" >&2
  exit 1
fi
echo "layering OK (no direct dimemas::replay in bench/ or src/analysis/)"

# The deprecated raw trace/platform analysis shims were removed once the
# Study/ReplayContext API landed; they must not come back.
if grep -rn --include='*.cpp' --include='*.hpp' -F '[[deprecated' \
     "$ROOT/src/analysis"; then
  echo "error: [[deprecated]] shim under src/analysis/; the raw" \
       "trace/platform entry points were removed — add the Study/" \
       "ReplayContext overload directly instead" >&2
  exit 1
fi
echo "shims OK (no [[deprecated]] under src/analysis/)"

# One byte codec: every binary format (store objects, RPC, binary traces)
# encodes its fields through common/bytes.hpp.
if grep -rnE --include='*.cpp' --include='*.hpp' '\(8 \* i\)' "$ROOT/src" |
     grep -vE '^[^:]*/src/common/bytes\.hpp:'; then
  echo "error: hand-rolled byte-shift loop outside src/common/bytes.hpp;" \
       "use bytes::Writer / bytes::Reader (or store_le/load_le)" >&2
  exit 1
fi
echo "codec OK (byte-shift loops only in common/bytes.hpp)"

# One text input contract: the trace, annotated and platform readers parse
# the mapped bytes through common/line_cursor.hpp, not an istream.
if grep -n 'std::getline' "$ROOT"/src/trace/*io.cpp \
     "$ROOT/src/dimemas/platform_io.cpp"; then
  echo "error: std::getline in a file reader; parse the mapped bytes" \
       "through LineCursor (common/line_cursor.hpp)" >&2
  exit 1
fi
echo "input OK (file readers parse through LineCursor)"

cmake -B "$BUILD" -S "$ROOT" -DOSIM_SANITIZE="$SANITIZE" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# ThreadSanitizer over the thread-pool engine. 'undefined' mode skips
# this: it is a pure-UBSan lane and the tsan pass already runs in the
# 'address' and 'thread' lanes.
if [ "$MODE" = undefined ]; then
  echo "check OK ($SANITIZE)"
  exit 0
fi
if [ "$MODE" = thread ]; then
  TSAN_BUILD="$BUILD"
else
  TSAN_BUILD="$ROOT/build-tsan"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DOSIM_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_BUILD" -j "$(nproc)" --target pipeline_test
fi
ctest --test-dir "$TSAN_BUILD" --output-on-failure -R '^pipeline_test$'

echo "check OK ($SANITIZE + tsan:pipeline_test)"
