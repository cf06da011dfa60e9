// Target-machine description, mirroring the Dimemas parametrization quoted
// in the paper: "The interconnect is parametrized by bandwidth, latency and
// the number of global buses (denoting how many messages are allowed to
// concurrently travel throughout the network). Also, each processor is
// characterized by the number of input/output ports that determine its
// injection rate to the network."
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace osim::dimemas {

enum class NetworkModelKind : std::uint8_t {
  kBus,        // Dimemas model: latency + size/bw, global buses, node ports
  kFairShare,  // detailed reference model: max-min fair link/fabric sharing
};

struct Platform {
  std::int32_t num_nodes = 0;  // one MPI rank per node, as in the paper

  /// Relative CPU speed: simulated burst time =
  /// instructions / (trace MIPS * relative_cpu_speed).
  double relative_cpu_speed = 1.0;

  /// Optional per-node CPU speed multipliers (heterogeneous machines /
  /// straggler studies). When non-empty, node n runs at
  /// relative_cpu_speed * per_node_cpu_speed[n]; must have num_nodes
  /// entries.
  std::vector<double> per_node_cpu_speed;

  double node_cpu_speed(std::int32_t node) const {
    if (per_node_cpu_speed.empty()) return relative_cpu_speed;
    return relative_cpu_speed *
           per_node_cpu_speed[static_cast<std::size_t>(node)];
  }

  // --- interconnect -----------------------------------------------------
  NetworkModelKind model = NetworkModelKind::kBus;
  double bandwidth_MBps = 250.0;  // per-link unidirectional bandwidth
  double latency_us = 8.0;        // per-message startup latency
  /// Per-message endpoint overhead (the LogGP "o"): time the sending and
  /// receiving ports stay occupied per message on top of the serialization
  /// time. 0 (the default) reproduces the pure linear model, where
  /// zero-byte messages occupy no endpoint resources at all.
  double per_message_overhead_us = 0.0;

  // Bus model parameters.
  std::int32_t num_buses = 0;     // 0 = unlimited concurrent messages
  std::int32_t input_ports = 1;   // concurrent receptions per node
  std::int32_t output_ports = 1;  // concurrent injections per node

  // Fair-share (detailed reference) model parameter: aggregate switch
  // capacity as a multiple of the link bandwidth; <= 0 → unlimited fabric.
  double fabric_capacity_links = 0.0;

  /// Messages up to this size use the eager protocol (transfer starts at
  /// the send call); larger messages use rendezvous (transfer starts once
  /// the matching receive is posted).
  std::uint64_t eager_threshold_bytes = 16 * 1024;

  double bandwidth_Bps() const { return bandwidth_MBps * 1.0e6; }
  double latency_s() const { return latency_us * 1.0e-6; }
  double per_message_overhead_s() const {
    return per_message_overhead_us * 1.0e-6;
  }

  /// The paper's test-bed: Marenostrum-like node (PowerPC 970 @ 2.3 GHz)
  /// with a Myrinet network of 250 MB/s unidirectional bandwidth. The bus
  /// count is per-application (Table I) and set by the caller.
  static Platform marenostrum(std::int32_t num_nodes, std::int32_t buses);

  /// The bus platform osim_replay builds from its network flags
  /// (--bandwidth MB/s, --latency us, --buses, --ports, --eager bytes); the
  /// analysis service builds its platforms here too. Throws
  /// osim::UsageError naming the flag ("--bandwidth must be ...") when a
  /// value breaks its field's rule (field_error).
  static Platform from_flags(std::int32_t num_nodes, double bandwidth_MBps,
                             double latency_us, std::int64_t buses,
                             std::int64_t ports, std::int64_t eager_bytes);

  /// The one validator of platforms built from outside input: the network
  /// flags (from_flags) and platform files (read_platform) check every
  /// value against its field's rule here, before narrowing it. `key` is
  /// the field's platform-file key (see platform_io.hpp). Returns "" when
  /// `value` obeys the rule, else the rule with the value
  /// ("must be a positive number of MB/s (got 0)"). The counts' bounds fit
  /// std::int32_t; numbers must be finite.
  static std::string field_error(std::string_view key, double value);

  /// The detailed reference machine used as "the real run" in our
  /// reproduction (see DESIGN.md substitutions): same links, max-min fair
  /// sharing, finite switch fabric.
  static Platform reference_machine(std::int32_t num_nodes);

  std::string describe() const;
};

}  // namespace osim::dimemas
