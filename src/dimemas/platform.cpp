#include "dimemas/platform.hpp"

#include <limits>
#include <tuple>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "trace/trace.hpp"

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

namespace {

/// One rule per platform field, by its platform-file key: `value` must lie
/// in [lo, hi], or in (lo, hi] when lo_open. The bounds are finite, so nan
/// and infinities break every rule.
struct FieldRule {
  std::string_view key;
  double lo;
  bool lo_open;
  double hi;
  const char* text;
};

static_assert(trace::kMaxRanks == 1'000'000, "the nodes rule spells it");
constexpr double kMaxCount = std::numeric_limits<std::int32_t>::max();
constexpr double kHuge = std::numeric_limits<double>::max();
constexpr FieldRule kFieldRules[] = {
    {"nodes", 1, false, static_cast<double>(trace::kMaxRanks),
     "in [1, 1000000]"},
    {"bandwidth_mbps", 0, true, kHuge, "a positive number of MB/s"},
    {"latency_us", 0, false, kHuge, "a non-negative number of us"},
    {"overhead_us", 0, false, kHuge, "a non-negative number of us"},
    {"buses", 0, false, kMaxCount, "in [0, 2147483647] (0 = unlimited)"},
    {"input_ports", 1, false, kMaxCount, "in [1, 2147483647]"},
    {"output_ports", 1, false, kMaxCount, "in [1, 2147483647]"},
    {"eager_threshold", 0, false, kHuge, "a non-negative number of bytes"},
    {"relative_cpu_speed", 0, true, kHuge, "a positive number"},
    {"fabric_links", -kHuge, false, kHuge,
     "a finite number (<= 0 = unlimited)"},
};

}  // namespace

std::string Platform::field_error(std::string_view key, double value) {
  for (const FieldRule& rule : kFieldRules) {
    if (rule.key != key) continue;
    const bool above = rule.lo_open ? value > rule.lo : value >= rule.lo;
    if (above && value <= rule.hi) return "";
    return strprintf("must be %s, got %.15g", rule.text, value);
  }
  OSIM_UNREACHABLE("unknown platform field");
}

Platform Platform::from_flags(std::int32_t num_nodes, double bandwidth_MBps,
                              double latency_us, std::int64_t buses,
                              std::int64_t ports, std::int64_t eager_bytes) {
  const std::tuple<const char*, std::string_view, double> flags[] = {
      {"bandwidth", "bandwidth_mbps", bandwidth_MBps},
      {"latency", "latency_us", latency_us},
      {"buses", "buses", static_cast<double>(buses)},
      {"ports", "input_ports", static_cast<double>(ports)},
      {"eager", "eager_threshold", static_cast<double>(eager_bytes)},
  };
  for (const auto& [flag, key, value] : flags) {
    const std::string error = field_error(key, value);
    if (!error.empty()) {
      throw UsageError(strprintf("--%s %s", flag, error.c_str()));
    }
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
