#include "metrics/collector.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"

namespace osim::metrics {

ReplayCollector::ReplayCollector(std::int32_t num_ranks,
                                 std::int32_t num_nodes, bool keep_samples)
    : rank_waits_(static_cast<std::size_t>(num_ranks)),
      peer_waits_(static_cast<std::size_t>(num_ranks)),
      bus_(keep_samples),
      in_(static_cast<std::size_t>(num_nodes), OccupancyTracker(keep_samples)),
      out_(static_cast<std::size_t>(num_nodes),
           OccupancyTracker(keep_samples)) {
  OSIM_CHECK(num_ranks > 0 && num_nodes > 0);
}

void ReplayCollector::attribute(std::int32_t rank, std::int32_t peer,
                                BlockKind kind, double begin, double end,
                                const TransferTiming* timing) {
  if (end <= begin) return;
  const WaitComponents components = decompose(begin, end, timing);
  auto& attribution = rank_waits_[static_cast<std::size_t>(rank)];
  switch (kind) {
    case BlockKind::kSend:
      attribution.send += components;
      break;
    case BlockKind::kRecv:
      attribution.recv += components;
      break;
    case BlockKind::kWait:
      attribution.wait += components;
      break;
  }
  std::vector<PeerWait>& peers = peer_waits_[static_cast<std::size_t>(rank)];
  auto it = std::lower_bound(
      peers.begin(), peers.end(), peer,
      [](const PeerWait& entry, std::int32_t p) { return entry.peer < p; });
  if (it == peers.end() || it->peer != peer) {
    PeerWait fresh;
    fresh.rank = rank;
    fresh.peer = peer;
    it = peers.insert(it, fresh);
  }
  PeerWait& pair = *it;
  pair.blocks++;
  pair.components += components;
}

void ReplayCollector::count_message(bool eager, std::uint64_t bytes) {
  if (eager) {
    protocol_.eager_messages++;
    protocol_.eager_bytes += bytes;
  } else {
    protocol_.rendezvous_messages++;
    protocol_.rendezvous_bytes += bytes;
  }
}

OccupancyTracker& ReplayCollector::in_tracker(std::int32_t node) {
  return in_[static_cast<std::size_t>(node)];
}

OccupancyTracker& ReplayCollector::out_tracker(std::int32_t node) {
  return out_[static_cast<std::size_t>(node)];
}

ReplayMetrics ReplayCollector::finish(double end_time) {
  ReplayMetrics metrics;
  metrics.rank_waits = std::move(rank_waits_);
  std::size_t pairs = 0;
  for (const std::vector<PeerWait>& peers : peer_waits_) pairs += peers.size();
  metrics.peer_waits.reserve(pairs);
  for (const std::vector<PeerWait>& peers : peer_waits_) {
    metrics.peer_waits.insert(metrics.peer_waits.end(), peers.begin(),
                              peers.end());
  }
  metrics.bus = bus_.finish(end_time);
  metrics.node_in.reserve(in_.size());
  for (OccupancyTracker& tracker : in_) {
    metrics.node_in.push_back(tracker.finish(end_time));
  }
  metrics.node_out.reserve(out_.size());
  for (OccupancyTracker& tracker : out_) {
    metrics.node_out.push_back(tracker.finish(end_time));
  }
  metrics.protocol = protocol_;
  return metrics;
}

}  // namespace osim::metrics
