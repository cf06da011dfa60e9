// Race detector: findings that need the happens-before relation.
//
// Two checks, both pure functions of a trace plus its HbAnalysis:
//
//   wildcard-race   a wildcard receive whose match is nondeterministic: a
//                   second send to its rank from a *different* source also
//                   matches the receive's envelope and is concurrent (under HB) with the
//                   send the abstract machine paired — so a real execution
//                   may deliver either message. Same-source candidates are
//                   never racy (MPI non-overtaking orders them), and a
//                   candidate ordered after the receive's completion cannot
//                   reach it. Because the collective model is a conservative
//                   barrier (see hb.hpp) this check under-reports rather
//                   than invents races.
//
//   buffer-reuse    a blocking send (recv) whose envelope aliases an
//                   in-flight immediate send (recv) on the same rank — same
//                   peer and tag, request not yet waited. The blocking op
//                   plausibly touches the same application buffer while the
//                   nonblocking transfer may still be using it. Immediate-
//                   on-immediate aliasing is NOT flagged: double-buffered
//                   pipelines legitimately keep several requests in flight.
//
// Both findings are warnings: the trace replays deterministically in our
// simulator, but the program it describes is fragile on a real machine.
#pragma once

#include "lint/diagnostics.hpp"
#include "lint/hb.hpp"
#include "trace/trace.hpp"

namespace osim::lint {

/// Reads the post clock of every buffer-reuse site, and for each matched
/// wildcard receive its post and completion clocks and the post clocks of
/// its rival sends: `hb` must hold the points declare_race_clock_reads
/// declares.
void check_races(const trace::Trace& trace, const HbAnalysis& hb,
                 Report& report);

/// Declares the clocks check_races reads, found by the same scans: the
/// buffer-reuse sites, every wildcard receive (post and completion) and
/// every send whose envelope matches a wildcard receive of its
/// destination (post).
void declare_race_clock_reads(const trace::Trace& trace, HbPoints& points);

}  // namespace osim::lint
