// osim_lint — the trace semantic verifier.
//
// A multi-pass static analyzer for replayable traces: it checks, without
// replaying, that a trace is a semantically valid MPI program — matched
// point-to-point traffic, well-formed immediate-request lifecycles, no
// cross-rank deadlock, consistent collectives — and, given an original /
// transformed pair, that the overlap transformation preserved the message
// structure it claims to. On top of the classic passes sits a
// happens-before engine (lint/hb.hpp) powering a race detector and a
// static overlap-hazard classifier. All findings are structured
// diagnostics (severity, pass, stable code, rank, record index, message,
// clock evidence); nothing throws on a bad trace.
//
// Passes (each also callable individually — see the per-pass headers):
//   0. structure    — shape sanity: a positive rank count matching the
//                     record streams (when this fails the trace cannot be
//                     indexed per rank, so all other passes are skipped)
//                     and a positive MIPS rate
//   1. match        — point-to-point matching (lint/match.hpp)
//   2. requests     — request lifecycle (lint/requests.hpp)
//   3. collectives  — collective consistency (lint/collectives.hpp)
//   (passes 0-3 are check_structure(), the only structural checker: the
//   replayer's precondition, enforced by pipeline::ReplayContext)
//   4. deadlock     — cross-rank wait-for cycles (lint/deadlock.hpp)
//   5. races        — HB-based race detection (lint/races.hpp)
//   6. overlap      — overlap-window advisories (lint/overlap_hazards.hpp)
//   7. transform    — overlap-transform safety (lint/transform_check.hpp)
#pragma once

#include <cstddef>
#include <cstdint>

#include "lint/deadlock.hpp"
#include "lint/diagnostics.hpp"
#include "trace/trace.hpp"

namespace osim::lint {

/// Counters of one lint_trace run.
struct LintStats {
  /// The happens-before machine's peak live snapshot count
  /// (HbAnalysis::peak_live_snapshots).
  std::size_t hb_peak_live_snapshots = 0;
};

struct LintOptions {
  /// Rendezvous cutoff for the deadlock and happens-before passes; mirrors
  /// the default dimemas::Platform eager threshold. Plumb the platform's
  /// real value through here (osim_lint --platform).
  std::uint64_t eager_threshold_bytes = kDefaultEagerThresholdBytes;
  /// Worker threads for the pass schedule. Passes (and the rank-local
  /// requests pass per rank) are independent tasks written to fixed result
  /// slots and merged in canonical order, so any jobs value produces a
  /// byte-identical report; <= 1 runs everything inline.
  int jobs = 1;
  /// When non-null, lint_trace writes the run's counters here (a report
  /// served from a cache leaves them untouched).
  LintStats* stats = nullptr;
};

/// Runs the structural passes (structure, match, requests, collectives) on
/// one thread. A trace with no errors here is one the replayer runs: this
/// is the check pipeline::ReplayContext and osim_inspect apply.
Report check_structure(const trace::Trace& trace);

/// Runs the single-trace passes: check_structure's, then deadlock, races
/// and overlap, merged in that order.
Report lint_trace(const trace::Trace& trace, const LintOptions& options = {});

/// Runs the transform-safety pass on an original / transformed pair. The
/// transformed trace should additionally be checked with lint_trace().
Report lint_transform(const trace::Trace& original,
                      const trace::Trace& transformed);

}  // namespace osim::lint
