#!/bin/sh
# Pins the paper's evaluation: runs every bench at its defaults into a
# temp directory and requires each output file to be byte-identical to
# the committed one under bench_results/, and the two file sets to match.
# A change that moves a result on purpose regenerates bench_results/ by
# running the benches below with --out-dir bench_results.
# Usage: paper_results_test.sh <build_dir> <bench_results_dir>
set -e
BUILD="$1"
EXPECTED="$2"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
mkdir "$OUT/results"

for bench in table1_buses table2_patterns fig4_timeline fig5_patterns \
             fig6a_speedup fig6b_relaxation fig6c_equivalent \
             ablation_mechanisms ablation_chunks ablation_protocol \
             ablation_collectives whatif_network critpath_analysis \
             scaling_ranks whatif_straggler baseline_sancho \
             robustness_overlap progress_regimes; do
  "$BUILD/bench/$bench" --out-dir "$OUT/results" > "$OUT/log" 2>&1 \
      || { cat "$OUT/log" >&2; echo "$bench failed" >&2; exit 1; }
done

(cd "$OUT/results" && ls) > "$OUT/produced"
(cd "$EXPECTED" && ls) > "$OUT/committed"
if ! cmp -s "$OUT/committed" "$OUT/produced"; then
  echo "bench outputs and bench_results/ list different files:" >&2
  diff "$OUT/committed" "$OUT/produced" >&2 || true
  exit 1
fi
status=0
while read -r name; do
  cmp "$EXPECTED/$name" "$OUT/results/$name" || status=1
done < "$OUT/produced"
exit $status
