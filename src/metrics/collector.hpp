// ReplayCollector — the aggregation sink behind the replay engine's
// instrumentation hooks.
//
// The replay engine owns one collector per run (only when
// ReplayOptions::collect_metrics is set) and feeds it three streams:
// blocked-interval attributions from unblock(), protocol counts from the
// send path, and occupancy levels pushed by the network model. All methods
// are passive accumulators — a collector never changes simulated time or
// event order, which is what keeps replay results bit-identical with
// collection on or off. Occupancy samples (the per-change log behind the
// Paraver counter records) are kept only when the collector is built to
// keep them; histograms, peaks and busy time are the same either way.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/attribution.hpp"
#include "metrics/occupancy.hpp"
#include "metrics/replay_metrics.hpp"

namespace osim::metrics {

class ReplayCollector {
 public:
  ReplayCollector(std::int32_t num_ranks, std::int32_t num_nodes,
                  bool keep_samples = true);

  /// Attributes the blocked span [begin, end] of `rank`, released by a
  /// transfer with `timing` whose other end was `peer` (-1 = unknown).
  void attribute(std::int32_t rank, std::int32_t peer, BlockKind kind,
                 double begin, double end, const TransferTiming* timing);

  void count_message(bool eager, std::uint64_t bytes);

  OccupancyTracker& bus_tracker() { return bus_; }
  OccupancyTracker& in_tracker(std::int32_t node);
  OccupancyTracker& out_tracker(std::int32_t node);

  /// Closes all occupancy timelines at `end_time` and assembles the final
  /// metrics, moving the accumulated tables out. Call once, after the
  /// replay finished.
  ReplayMetrics finish(double end_time);

 private:
  std::vector<RankWaitAttribution> rank_waits_;
  /// Per rank, its peers' entries sorted by peer (-1 first): a rank blocks
  /// on few peers, and finish() concatenates them in (rank, peer) order.
  std::vector<std::vector<PeerWait>> peer_waits_;
  OccupancyTracker bus_;
  std::vector<OccupancyTracker> in_;
  std::vector<OccupancyTracker> out_;
  ProtocolCounts protocol_;
};

}  // namespace osim::metrics
