// Platform configuration files, in the spirit of Dimemas .cfg files: a
// line-oriented `key value` format so replay experiments can be described
// as data rather than code.
//
//   # overlapsim platform
//   nodes 64
//   model bus            # or: fairshare
//   bandwidth_mbps 250
//   latency_us 4
//   buses 12             # 0 = unlimited
//   input_ports 1
//   output_ports 1
//   eager_threshold 16384
//   relative_cpu_speed 1.0
//   fabric_links 8       # fairshare model only; 0 = unlimited
//
// Every value passes the rule of its field (Platform::field_error, the
// same rules the network flags obey): counts are integers (nodes in
// [1, 1000000], buses >= 0, ports >= 1), rates and times finite numbers
// (bandwidth and CPU speed above zero, latency and overhead not below).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "dimemas/platform.hpp"

namespace osim::dimemas {

void write_platform(const Platform& platform, std::ostream& out);
std::string write_platform(const Platform& platform);
void write_platform_file(const Platform& platform, const std::string& path);

/// Parses a platform description; an unknown key or a value that breaks
/// its field's rule raises osim::Error naming the line and the key. The
/// file reader parses the mapped file.
Platform read_platform(std::string_view text);
Platform read_platform_file(const std::string& path);

}  // namespace osim::dimemas
