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
// Representation: live state plus declared points. Clocks are not stored
// per record, and history is not kept. The machine runs one dense clock
// per rank; a rank's clock changes only by the program-order tick
// (component r after record i is always i+1) and by the joins applied
// when a blocking record completes. Whatever a *later* join must read —
// the post clock of a pending send or receive, a collective arrival, an
// unresolved collective's join — is a reference-counted dense snapshot
// plus the record's own tick. A snapshot is held by the ranks whose
// current clock equals it, by the post stamps of pending sends and
// receives until the partner's completion has joined them (or can no
// longer: eager sends, requests dropped unwaited), by collective arrivals
// until their join is computed and by that join until every rank has
// resolved the collective. A rank's clock is copied into a snapshot only
// when a post first needs to reference it; at refcount zero the snapshot
// goes onto a free list whose buffers are reused. Memory is
// O(in-flight × ranks), not O(joins × ranks); HbAnalysis reports the peak
// live snapshot count.
//
// The clocks a caller can read afterwards are the ones it declared
// before the run (HbPoints): the machine pins the snapshot behind each
// declared post or completion clock when it reaches the record. lint
// declares exactly the points its passes read (lint_clock_points); tests
// declare every point. Reading an undeclared point is a programming error
// and fails loudly (OSIM_CHECK) rather than returning the empty "unknown
// order" clock, which would silently hide findings.
//
// The machine is total on damaged traces: it never executes past a blocked
// rank, so a deadlocked or salvage-truncated trace simply leaves some
// records without clocks (empty vectors) and `converged` false. Passes on
// top must treat a missing clock as "unknown order" and stay silent.
#pragma once

#include <algorithm>
#include <cstddef>
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

/// A rank still blocked at the fixed point.
struct StuckRank {
  trace::Rank rank = -1;
  std::size_t record = 0;  // the blocking record
  std::string needs;       // what it waits for, e.g. "a matching recv ..."
  /// Ranks it waits on (ascending): the peers that could satisfy it.
  std::vector<trace::Rank> waits_on;
};

/// Which clocks of one record a caller reads (a bit set).
enum HbClockKind : std::uint8_t {
  kPostClock = 1,
  kCompletionClock = 2,
};

/// The points whose clocks an analysis keeps: per rank, records and the
/// clock kinds wanted there. Declaring a point twice merges its kinds.
class HbPoints {
 public:
  struct Point {
    std::size_t record = 0;
    std::uint8_t kinds = 0;  // HbClockKind bits
  };

  explicit HbPoints(std::int32_t num_ranks)
      : ranks_(static_cast<std::size_t>(std::max(num_ranks, 0))) {}

  /// Both clocks of every record of `trace`: the tests' full query.
  static HbPoints every(const trace::Trace& trace);

  void add(trace::Rank r, std::size_t record, std::uint8_t kinds) {
    ranks_[static_cast<std::size_t>(r)].push_back(Point{record, kinds});
  }

  /// Rank r's points, ascending by record, one per record.
  std::vector<Point> sorted(trace::Rank r) const;

 private:
  std::vector<std::vector<Point>> ranks_;
};

struct HbAnalysis {
  std::int32_t num_ranks = 0;
  /// All ranks ran their streams to completion. False on deadlock or
  /// starvation (see `stuck`); clocks of unexecuted records stay empty.
  bool converged = false;

  /// executed[r]: records of rank r the machine executed (posted).
  std::vector<std::size_t> executed;

  std::vector<HbMatch> matches;
  /// Ranks blocked forever, ascending; empty when converged.
  std::vector<StuckRank> stuck;

  /// The most snapshots alive at once during the run (the machine's
  /// memory is about this many clocks of num_ranks components).
  std::size_t peak_live_snapshots = 0;

  /// Rank r's clock immediately after *posting* record i (program-order
  /// tick applied, no completion joins). Empty when never executed. The
  /// point must have been declared with kPostClock (OSIM_CHECK).
  VectorClock post(trace::Rank r, std::size_t i) const {
    return clock_at(r, i, kPostClock);
  }
  /// The clock once record i's blocking condition resolved (equal to the
  /// post clock for records that never block or never unblocked). The
  /// point must have been declared with kCompletionClock (OSIM_CHECK).
  VectorClock completion(trace::Rank r, std::size_t i) const {
    return clock_at(r, i, kCompletionClock);
  }

 private:
  friend class ClockedMachine;

  /// Sentinel clock index: the record never executed.
  static constexpr std::size_t kNoClock = static_cast<std::size_t>(-1);
  /// A declared point's pinned clocks, as indices into `clocks_` (own
  /// component not yet set to the record's tick). While the machine runs
  /// they are its snapshot pool slots.
  struct Captured {
    std::size_t record = 0;
    std::uint8_t kinds = 0;
    std::size_t post = kNoClock;
    std::size_t completion = kNoClock;
  };

  VectorClock clock_at(trace::Rank r, std::size_t i, HbClockKind kind) const;

  std::vector<std::vector<Captured>> captured_;  // per rank, by record
  std::vector<VectorClock> clocks_;              // distinct pinned clocks
};

/// The points the lint passes read, computed from the trace alone by the
/// functions the passes select their sites with (races.hpp,
/// overlap_hazards.hpp): zero-window exemplars, buffer-reuse sites, and
/// for wildcard receives their post and completion plus the post of every
/// send whose envelope matches one.
HbPoints lint_clock_points(const trace::Trace& trace);

/// Runs the abstract machine, keeping the clocks of `points`. Never
/// throws on trace content; the trace must be structurally sound
/// (ranks.size() == num_ranks — see lint_trace()'s structure pre-pass).
HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  const HbPoints& points,
                                  std::uint64_t eager_threshold_bytes =
                                      kDefaultEagerThresholdBytes);

/// Same, keeping exactly the clocks the lint passes read
/// (lint_clock_points).
HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes =
                                      kDefaultEagerThresholdBytes);

}  // namespace osim::lint
