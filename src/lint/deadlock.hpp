// Lint pass 3: deadlock detection.
//
// A view of the lint abstract machine (lint/hb.hpp): the untimed, clocked
// interpretation that also feeds the race and overlap passes runs every
// record to a fixed point, and the ranks still blocked there — its stuck
// set — can never progress in a real replay either.
//
// Stuck ranks are connected into a cross-rank wait-for graph and its
// strongly connected components are reported: cyclic components as
// deadlock cycles with the full blame chain (who waits on whom, at which
// record), acyclic stuck ranks as starvation (waiting on a peer that
// terminates without satisfying them).
#pragma once

#include <cstdint>

#include "lint/diagnostics.hpp"
#include "lint/hb.hpp"
#include "trace/trace.hpp"

namespace osim::lint {

/// Reports the stuck set of `hb`, the machine's run over `trace`.
void check_deadlock(const trace::Trace& trace, const HbAnalysis& hb,
                    Report& report);

/// Runs the machine and reports its stuck set.
void check_deadlock(const trace::Trace& trace, Report& report,
                    std::uint64_t eager_threshold_bytes =
                        kDefaultEagerThresholdBytes);

}  // namespace osim::lint
