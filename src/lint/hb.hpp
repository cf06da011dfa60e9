// The lint abstract machine: happens-before clocks and the stuck set.
//
// One untimed abstract interpretation serves the deadlock, race and
// overlap-hazard passes. Records are executed round-robin to a fixed
// point under the replayer's matching discipline (dimemas/matching.hpp)
// and the eager/rendezvous protocol split: a blocking receive needs a
// matching send issued, a rendezvous send (synchronous, or larger than the
// eager threshold) needs its matching receive posted, a wait needs its
// requests' partners, and a collective needs every rank to arrive.
// Completion is monotone (once satisfiable, always satisfiable), so a rank
// still blocked at the fixed point can never progress in a real replay
// either; those ranks form the stuck set the deadlock pass blames.
//
// Every executed record carries a vector clock:
//
//   program order   executing record i of rank r ticks component r, so the
//                   clock of record i strictly dominates that of record i-1;
//   message edges   a receive's *completion* joins the matching send's post
//                   clock (data cannot arrive before it was sent), and a
//                   rendezvous send's completion joins the matching
//                   receive's post clock (the transfer cannot start before
//                   the receive is posted). Eager sends complete locally
//                   and contribute no synchronization;
//   waits           join the message edges of every request they complete;
//   collectives     the k-th collective completes at the join of all ranks'
//                   arrival clocks at their k-th collective — a barrier
//                   approximation that is deliberately conservative (it
//                   orders more than a real non-synchronizing collective
//                   would, so HB-based race checks under-report rather than
//                   invent ordering violations; see races.hpp for how the
//                   race pass compensates).
//
// Two records are ordered (a happens-before b) iff clock(a) <= clock(b)
// componentwise and the clocks differ; otherwise they are concurrent.
//
// Representation. Clocks are not stored per record. The machine keeps one
// running clock per rank, and a rank's clock changes in only two ways: the
// program-order tick (component r after record i is always i+1) and the
// joins applied when a blocking record completes. So HbAnalysis stores a
// table of dense snapshots plus, per rank, an *epoch* for each completion
// whose join changed the clock: (record, snapshot id). post(r, i) is the
// snapshot of the last epoch before record i, completion(r, i) that of the
// last epoch at or before i, each with component r set to i+1. All ranks
// completing the k-th collective share one snapshot, the collective's join,
// computed once. Memory is O(snapshots × ranks) instead of O(records ×
// ranks); the accessors rebuild a clock by value in O(ranks).
//
// The machine is total on damaged traces: it never executes past a blocked
// rank, so a deadlocked or salvage-truncated trace simply leaves some
// records without clocks (empty vectors) and `converged` false. Passes on
// top must treat a missing clock as "unknown order" and stay silent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace osim::lint {

/// Default rendezvous cutoff, mirroring dimemas::Platform's default eager
/// threshold: sends at or below this size are assumed buffered and never
/// block; larger (or synchronous) sends block until the receive is posted.
inline constexpr std::uint64_t kDefaultEagerThresholdBytes = 16 * 1024;

/// One component per rank; component r counts records executed by rank r.
using VectorClock = std::vector<std::uint64_t>;

/// True when `a` happens-before `b` (componentwise <=, and a != b). Empty
/// clocks (records the abstract machine never executed) are unordered.
bool hb_before(const VectorClock& a, const VectorClock& b);

/// True when neither clock orders the other (and both are known).
bool hb_concurrent(const VectorClock& a, const VectorClock& b);

/// Render as "[1,0,2]" for diagnostics evidence.
std::string clock_to_string(const VectorClock& clock);

/// A matched point-to-point pair, as paired by the abstract machine.
struct HbMatch {
  trace::Rank src = -1;
  std::size_t send_record = 0;  // index in the sender's stream
  trace::Rank dst = -1;
  std::size_t recv_record = 0;  // index in the receiver's stream
};

/// A completion whose join changed its rank's clock.
struct HbEpoch {
  std::size_t record = 0;    // the record whose completion changed it
  std::size_t snapshot = 0;  // index into HbAnalysis::snapshots
};

/// A rank still blocked at the fixed point.
struct StuckRank {
  trace::Rank rank = -1;
  std::size_t record = 0;  // the blocking record
  std::string needs;       // what it waits for, e.g. "a matching recv ..."
  /// Ranks it waits on (ascending): the peers that could satisfy it.
  std::vector<trace::Rank> waits_on;
};

struct HbAnalysis {
  std::int32_t num_ranks = 0;
  /// All ranks ran their streams to completion. False on deadlock or
  /// starvation (see `stuck`); clocks of unexecuted records stay empty.
  bool converged = false;

  /// Dense clocks; snapshot 0 is the zero clock every rank starts from.
  std::vector<VectorClock> snapshots;
  /// epochs[r]: rank r's clock changes, ascending by record.
  std::vector<std::vector<HbEpoch>> epochs;
  /// executed[r]: records of rank r the machine executed (posted).
  std::vector<std::size_t> executed;

  std::vector<HbMatch> matches;
  /// Ranks blocked forever, ascending; empty when converged.
  std::vector<StuckRank> stuck;

  /// Rank r's clock immediately after *posting* record i (program-order
  /// tick applied, no completion joins). Empty when never executed.
  VectorClock post(trace::Rank r, std::size_t i) const {
    return clock_at(r, i, false);
  }
  /// The clock once record i's blocking condition resolved (equal to the
  /// post clock for records that never block or never unblocked).
  VectorClock completion(trace::Rank r, std::size_t i) const {
    return clock_at(r, i, true);
  }

 private:
  VectorClock clock_at(trace::Rank r, std::size_t i, bool completed) const;
};

/// Runs the abstract machine. Never throws on trace content; the trace
/// must be structurally sound (ranks.size() == num_ranks — see
/// lint_trace()'s structure pre-pass).
HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes =
                                      kDefaultEagerThresholdBytes);

}  // namespace osim::lint
