#!/bin/sh
# Pins the paper's evaluation: runs every bench at its defaults into a
# temp directory and requires each output file to be byte-identical to
# the committed one under bench_results/, and the two file sets to match.
# It then asserts EXPERIMENTS.md's Table I, Table II and Fig. 6 shape
# claims on the files it has just produced (the benches' default scale,
# 16 ranks), so a regenerated bench_results/ cannot quietly break them.
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

# Table I: a small per-application bus count reproduces the reference
# machine within 10%, alya's flat calibration lands on 1 bus, and the
# count varies by communication pattern.
awk -F, 'NR > 1 {
  buses[$1] = $2 + 0
  if (!($6 + 0 < 0.10)) {
    printf "table1_buses at 16 ranks: %s relative error %s is not " \
           "below 0.10\n", $1, $6; bad = 1
  }
}
END {
  if (!("alya" in buses)) {
    print "table1_buses at 16 ranks: missing alya"
    exit 1
  }
  if (buses["alya"] != 1) {
    printf "table1_buses at 16 ranks: alya calibrates to %d buses, " \
           "not 1\n", buses["alya"]; bad = 1
  }
  distinct = 0
  for (app in buses) if (!(buses[app] in seen)) { seen[buses[app]]; ++distinct }
  if (distinct < 2) {
    print "table1_buses at 16 ranks: every app calibrates to the same " \
          "bus count"; bad = 1
  }
  exit bad
}' "$OUT/results/table1_buses.csv" >&2 || status=1

# Table II: nas_cg produces linearly (quarter ~25%, half ~50%), sweep3d
# produces its first element around 2/3 of the interval, and alya's
# one-element reductions have no quarter or half.
awk -F, 'NR > 1 && $2 == "production" {
  pct[$1 "," $3] = $4 + 0
}
NR > 1 && $1 == "alya" && ($3 == "quarter" || $3 == "half") {
  printf "table2_patterns at 16 ranks: alya has a %s %s row\n", $2, $3
  bad = 1
}
function near(app, portion, want) {
  key = app "," portion
  if (!(key in pct)) {
    printf "table2_patterns at 16 ranks: %s has no production %s row\n",
           app, portion; bad = 1
  } else if (pct[key] < want - 3 || pct[key] > want + 3) {
    printf "table2_patterns at 16 ranks: %s production %s %g%% is not " \
           "within 3 points of %d\n", app, portion, pct[key], want; bad = 1
  }
}
END {
  near("nas_cg", "quarter", 25)
  near("nas_cg", "half", 50)
  if (!("sweep3d,first" in pct)) {
    print "table2_patterns at 16 ranks: sweep3d has no production first row"
    bad = 1
  } else if (pct["sweep3d,first"] < 60 || pct["sweep3d,first"] > 80) {
    printf "table2_patterns at 16 ranks: sweep3d production first %g%% " \
           "is not in [60, 80]\n", pct["sweep3d,first"]; bad = 1
  }
  exit bad
}' "$OUT/results/table2_patterns.csv" >&2 || status=1

# Fig. 6(a): nas_cg has the highest real speedup, sweep3d the highest
# ideal one, alya is exactly 1/1, and speedup_ideal >= speedup_real >= 1.
awk -F, 'NR > 1 {
  real[$1] = $5 + 0; ideal[$1] = $6 + 0
  if (!(ideal[$1] >= real[$1] && real[$1] >= 1)) {
    printf "fig6a_speedup at 16 ranks: %s breaks speedup_ideal >= " \
           "speedup_real >= 1 (ideal %s, real %s)\n", $1, $6, $5; bad = 1
  }
  if ($1 == "alya" && !($5 == "1" && $6 == "1")) {
    printf "fig6a_speedup at 16 ranks: alya must be exactly 1/1 " \
           "(real %s, ideal %s)\n", $5, $6; bad = 1
  }
}
END {
  if (!("nas_cg" in real) || !("sweep3d" in real) || !("alya" in real)) {
    print "fig6a_speedup at 16 ranks: missing nas_cg, sweep3d or alya"
    exit 1
  }
  for (app in real) {
    if (real[app] > real["nas_cg"]) {
      printf "fig6a_speedup at 16 ranks: %s has a higher real speedup " \
             "than nas_cg (%g > %g)\n", app, real[app], real["nas_cg"]
      bad = 1
    }
    if (ideal[app] > ideal["sweep3d"]) {
      printf "fig6a_speedup at 16 ranks: %s has a higher ideal speedup " \
             "than sweep3d (%g > %g)\n", app, ideal[app], ideal["sweep3d"]
      bad = 1
    }
  }
  exit bad
}' "$OUT/results/fig6a_speedup.csv" >&2 || status=1

# Fig. 6(b): alya cannot relax, nas_cg relaxes the most under real
# patterns, and sweep3d relaxes by at least an order of magnitude under
# ideal ones.
awk -F, 'NR > 1 {
  relaxed_real[$1] = $2 + 0
  if ($1 == "alya" && !($2 + 0 == $4 + 0 && $3 + 0 == $4 + 0)) {
    printf "fig6b_relaxation at 16 ranks: alya must not relax " \
           "(real %s, ideal %s, nominal %s MB/s)\n", $2, $3, $4; bad = 1
  }
  if ($1 == "sweep3d" && !($3 * 10 <= $4 + 0)) {
    printf "fig6b_relaxation at 16 ranks: sweep3d ideal relaxes to %s " \
           "MB/s, more than a tenth of nominal %s MB/s\n", $3, $4; bad = 1
  }
}
END {
  if (!("nas_cg" in relaxed_real) || !("sweep3d" in relaxed_real) ||
      !("alya" in relaxed_real)) {
    print "fig6b_relaxation at 16 ranks: missing nas_cg, sweep3d or alya"
    exit 1
  }
  for (app in relaxed_real) {
    if (relaxed_real[app] < relaxed_real["nas_cg"]) {
      printf "fig6b_relaxation at 16 ranks: %s relaxes further than " \
             "nas_cg under real patterns (%g < %g MB/s)\n", app,
             relaxed_real[app], relaxed_real["nas_cg"]
      bad = 1
    }
  }
  exit bad
}' "$OUT/results/fig6b_relaxation.csv" >&2 || status=1
exit $status
