// Overlap-hazard pass: static prediction of communication-computation
// overlap potential, before any replay.
//
// Every immediate operation's *overlap window* is the compute time (CpuBurst
// instructions, converted to seconds at the trace MIPS rate) strictly
// between posting the operation and the wait that retires its request — an
// upper bound on how much transfer the replayer could hide behind
// computation. The pass reports, all at info severity (advisories, never
// failures):
//
//   zero-window     an immediate op whose wait follows with no intervening
//                   compute: the nonblocking call buys nothing and the
//                   paper's overlap mechanisms cannot engage. Anchored at
//                   the *posting* record, with the post's vector clock as
//                   evidence.
//   postponed-wait  a wait retiring two or more requests that all carry a
//                   nonzero window — the postponed-wait chain the paper's
//                   transformation produces; listed so replay metrics can
//                   be compared against the static prediction.
//   summary         one whole-trace line (rank -1) with the immediate-op
//                   census: zero-window / overlapped / never-waited counts
//                   and the total predicted window. Emitted only when the
//                   trace contains at least one immediate operation.
//
// A large trace has thousands of the first two, so they are collapsed
// where they are made: per code, at most kOverlapExemplarsPerCode
// exemplars (the first in (rank, record) order, with the full message and
// evidence) and one count advisory per rank that has any —
// "zero-window-count" ("<n> immediate operation(s) with zero overlap
// window") and "postponed-wait-count" ("<n> postponed-wait chain(s), total
// overlap window <window>"), anchored at the rank with no record. The
// order is: zero-window exemplars, zero-window counts, postponed-wait
// exemplars, postponed-wait counts, summary. Evidence clocks are looked up
// and rendered for the exemplars only.
//
// Request bookkeeping mirrors the requests pass (reuse overwrites, unknown
// requests are skipped) so misuse is reported exactly once, there.
#pragma once

#include <cstddef>

#include "lint/diagnostics.hpp"
#include "lint/hb.hpp"
#include "trace/trace.hpp"

namespace osim::lint {

/// Exemplar advisories kept per collapsed code (zero-window,
/// postponed-wait); the rest survive only in the per-rank counts.
inline constexpr std::size_t kOverlapExemplarsPerCode = 8;

/// Reads the post clocks of the zero-window exemplars: `hb` must hold the
/// points declare_overlap_clock_reads declares.
void check_overlap_hazards(const trace::Trace& trace, const HbAnalysis& hb,
                           Report& report);

/// Declares the clocks check_overlap_hazards reads, chosen by the same
/// exemplar selection: the post of each zero-window exemplar.
void declare_overlap_clock_reads(const trace::Trace& trace,
                                 HbPoints& points);

}  // namespace osim::lint
