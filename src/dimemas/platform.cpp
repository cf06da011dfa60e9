#include "dimemas/platform.hpp"

#include <cmath>
#include <limits>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::dimemas {

Platform Platform::marenostrum(std::int32_t num_nodes, std::int32_t buses) {
  Platform p;
  p.num_nodes = num_nodes;
  p.model = NetworkModelKind::kBus;
  p.bandwidth_MBps = 250.0;  // Myrinet unidirectional bandwidth (paper §IV)
  p.latency_us = 4.0;        // Myrinet/GM short-message latency class
  p.num_buses = buses;
  p.input_ports = 1;
  p.output_ports = 1;
  return p;
}

Platform Platform::from_flags(std::int32_t num_nodes, double bandwidth_MBps,
                              double latency_us, std::int64_t buses,
                              std::int64_t ports, std::int64_t eager_bytes) {
  constexpr std::int64_t kMaxCount = std::numeric_limits<std::int32_t>::max();
  if (!(bandwidth_MBps > 0.0) || !std::isfinite(bandwidth_MBps)) {
    throw UsageError(strprintf("--bandwidth must be a positive number of "
                               "MB/s (got %g)", bandwidth_MBps));
  }
  if (!(latency_us >= 0.0) || !std::isfinite(latency_us)) {
    throw UsageError(strprintf(
        "--latency must be a non-negative number of us (got %g)",
        latency_us));
  }
  if (buses < 0 || buses > kMaxCount) {
    throw UsageError(strprintf(
        "--buses must be in [0, %lld] (0 = unlimited; got %lld)",
        static_cast<long long>(kMaxCount), static_cast<long long>(buses)));
  }
  if (ports < 1 || ports > kMaxCount) {
    throw UsageError(strprintf("--ports must be in [1, %lld] (got %lld)",
                               static_cast<long long>(kMaxCount),
                               static_cast<long long>(ports)));
  }
  if (eager_bytes < 0) {
    throw UsageError(strprintf("--eager must be >= 0 bytes (got %lld)",
                               static_cast<long long>(eager_bytes)));
  }
  Platform p;
  p.num_nodes = num_nodes;
  p.bandwidth_MBps = bandwidth_MBps;
  p.latency_us = latency_us;
  p.num_buses = static_cast<std::int32_t>(buses);
  p.input_ports = static_cast<std::int32_t>(ports);
  p.output_ports = static_cast<std::int32_t>(ports);
  p.eager_threshold_bytes = static_cast<std::uint64_t>(eager_bytes);
  return p;
}

Platform Platform::reference_machine(std::int32_t num_nodes) {
  Platform p;
  p.num_nodes = num_nodes;
  p.model = NetworkModelKind::kFairShare;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;  // same link class as the bus-model platform
  // A finite fabric: about half of the nodes can stream at full link rate
  // simultaneously, which produces the global congestion the bus
  // calibration (Table I) has to chase.
  p.fabric_capacity_links = num_nodes <= 4 ? 2.0 : num_nodes / 2.0;
  return p;
}

std::string Platform::describe() const {
  const char* kind =
      model == NetworkModelKind::kBus ? "bus" : "fair-share";
  return strprintf(
      "%d nodes, %s network, %.6g MB/s, %.6g us latency, buses=%d, "
      "ports=%d/%d, eager<=%llu B",
      num_nodes, kind, bandwidth_MBps, latency_us, num_buses, input_ports,
      output_ports,
      static_cast<unsigned long long>(eager_threshold_bytes));
}

}  // namespace osim::dimemas
