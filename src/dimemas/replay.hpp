// The trace-driven replay simulator (the Dimemas role in the paper's
// pipeline): "Dimemas uses the traces obtained from each MPI process and
// off-line reconstructs the application's time-behavior on a configurable
// parallel platform."
//
// Semantics
// ---------
// Each rank is a logical process replaying its record stream:
//
//   CpuBurst  — advances the rank's clock by
//               instructions / (trace MIPS * relative_cpu_speed).
//   Send      — eager (bytes <= eager_threshold): the transfer enters the
//               network at the call; a blocking send returns immediately
//               (buffered) and an isend request completes immediately.
//               rendezvous: the transfer enters the network when the
//               matching receive is posted; a blocking send blocks until
//               arrival, an isend request completes at arrival.
//   Recv      — blocking: blocks until the matching message has fully
//               arrived. Irecv posts the receive; the request completes at
//               arrival.
//   Wait      — blocks until every listed request has completed.
//   GlobalOp  — expanded to point-to-point via expand_collectives()
//               (done automatically unless disabled).
//
// Matching follows MPI ordering: receives match announced sends in post
// order, sends match posted receives in announce order, with ANY_SOURCE /
// ANY_TAG wildcards honoured. Transfer time and contention come from the
// Network model (bus or fair-share).
#pragma once

#include <limits>

#include "common/cancel.hpp"
#include "dimemas/collectives.hpp"
#include "dimemas/platform.hpp"
#include "dimemas/progress.hpp"
#include "dimemas/result.hpp"
#include "faults/model.hpp"
#include "trace/soa.hpp"
#include "trace/trace.hpp"

namespace osim::dimemas {

struct ReplayOptions {
  bool record_timeline = false;  // populate SimResult::timelines
  bool record_comms = false;     // populate SimResult::comms
  /// Populate SimResult::metrics (wait-time attribution, resource
  /// occupancy, protocol counters). Collection is passive: replay results
  /// are bit-identical with this flag on or off, and the hooks cost
  /// nothing when it is off. The occupancy samples (the level-change log
  /// only the Paraver counters read) are kept only when record_timeline
  /// or record_comms is set too; every other field is the same either way.
  bool collect_metrics = false;
  /// How replay expands collectives into point-to-point traffic (every
  /// collective is expanded; the replayer has no GlobalOp path).
  CollectiveAlgo collective_algo = CollectiveAlgo::kBinomialTree;
  /// Abort with osim::Error if simulated time exceeds this (runaway guard).
  double max_sim_time_s = std::numeric_limits<double>::infinity();
  /// Deterministic fault & perturbation injection (see faults/model.hpp).
  /// Inert by default: with faults.enabled() == false no injector is
  /// constructed and replay results are bit-identical to a fault-free
  /// build. SimResult::fault_counts reports the injected activity.
  faults::FaultModel faults;
  /// MPI progress-engine regime (see dimemas/progress.hpp). Inert by
  /// default: the offload regime takes exactly the historical code paths,
  /// so results are bit-identical to a build without the axis.
  ProgressModel progress;
  /// Cooperative stop signal (see common/cancel.hpp), polled from the
  /// event loop on an amortized stride; when it fires, replay throws
  /// CancelledError carrying the partial progress so far. Null or unarmed
  /// = never polled. Deliberately NOT part of the scenario fingerprint
  /// (pipeline/context.cpp): a watchdog changes whether a scenario
  /// finished, not what it is. The token must outlive the replay call.
  const CancelToken* cancel = nullptr;
};

/// A trace lowered for replay: its record streams with collectives expanded
/// per the options' collective_algo, compiled to the struct-of-arrays lanes
/// the interpreter walks (trace/soa.hpp).
/// Lowering depends on nothing else — not the platform, faults, progress
/// regime or recording flags — so one program serves every replay of the
/// same trace under that option. pipeline::ReplayContext lowers once
/// per context family and shares the program across its derived contexts.
class ReplayProgram {
 public:
  const trace::CompiledTrace& lanes() const { return lanes_; }

  /// True if replaying under `options` would lower the trace to exactly
  /// this program.
  bool lowered_for(const ReplayOptions& options) const;

 private:
  friend ReplayProgram lower(const trace::Trace& trace,
                             const ReplayOptions& options);

  CollectiveAlgo collective_algo_ = CollectiveAlgo::kBinomialTree;
  trace::CompiledTrace lanes_;
};

/// True if `a` and `b` lower a trace to the same ReplayProgram (they agree
/// on collective_algo).
bool same_lowering(const ReplayOptions& a, const ReplayOptions& b);

/// Lowers `trace` for replay under `options`: expands its collectives (the
/// expanded trace is a temporary) and compiles the lanes. Same
/// precondition as replay().
ReplayProgram lower(const trace::Trace& trace, const ReplayOptions& options);

/// Replays `trace` on `platform` from its lowered `program`, which must
/// come from lower(trace, o) with same_lowering(o, options) — checked.
/// Precondition: `trace` is structurally valid — lint::check_structure
/// reports no errors. replay() does not re-check; callers pass a trace that
/// came through a pipeline::ReplayContext, which checks it once at
/// construction and lowers it once on its family's first replay. A receive
/// buffer at least as large as its send matches (see dimemas/matching.hpp)
/// and delivers the send's bytes. Throws osim::Error on deadlock (with a
/// per-rank diagnostic of where each rank is stuck, rendered from the
/// expanded record stream).
SimResult replay(const trace::Trace& trace, const ReplayProgram& program,
                 const Platform& platform, const ReplayOptions& options = {});

/// Lowers `trace`, then replays it: replay(trace, lower(trace, options),
/// platform, options). For one-off replays; repeated replays of one trace
/// should lower once.
SimResult replay(const trace::Trace& trace, const Platform& platform,
                 const ReplayOptions& options = {});

}  // namespace osim::dimemas
