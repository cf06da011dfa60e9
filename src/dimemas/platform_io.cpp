#include "dimemas/platform_io.hpp"

#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "common/line_cursor.hpp"
#include "trace/mmap_file.hpp"

namespace osim::dimemas {

void write_platform(const Platform& p, std::ostream& out) {
  out << "# overlapsim platform\n";
  out << "nodes " << p.num_nodes << "\n";
  out << "model "
      << (p.model == NetworkModelKind::kBus ? "bus" : "fairshare") << "\n";
  out << "bandwidth_mbps " << strprintf("%.17g", p.bandwidth_MBps) << "\n";
  out << "latency_us " << strprintf("%.17g", p.latency_us) << "\n";
  out << "overhead_us " << strprintf("%.17g", p.per_message_overhead_us)
      << "\n";
  out << "buses " << p.num_buses << "\n";
  out << "input_ports " << p.input_ports << "\n";
  out << "output_ports " << p.output_ports << "\n";
  out << "eager_threshold " << p.eager_threshold_bytes << "\n";
  out << "relative_cpu_speed " << strprintf("%.17g", p.relative_cpu_speed)
      << "\n";
  out << "fabric_links " << strprintf("%.17g", p.fabric_capacity_links)
      << "\n";
}

std::string write_platform(const Platform& p) {
  std::ostringstream os;
  write_platform(p, os);
  return os.str();
}

void write_platform_file(const Platform& p, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open platform file for writing: " + path);
  write_platform(p, out);
  if (!out) throw Error("error writing platform file: " + path);
}

Platform read_platform(std::string_view text) {
  LineCursor in(text, "platform file");
  Platform p;
  bool have_nodes = false;
  while (in.next()) {
    if (in.size() != 2) in.fail("expected 'key value'");
    const std::string_view key = in.token(0);
    if (key == "model") {
      if (in.token(1) == "bus") {
        p.model = NetworkModelKind::kBus;
      } else if (in.token(1) == "fairshare") {
        p.model = NetworkModelKind::kFairShare;
      } else {
        in.fail("unknown model '" + std::string(in.token(1)) +
                "' (bus | fairshare)");
      }
      continue;
    }
    if (key == "eager_threshold") {
      p.eager_threshold_bytes = in.integer<std::uint64_t>(1, key);
      continue;
    }
    std::int32_t* count = key == "nodes"          ? &p.num_nodes
                          : key == "buses"        ? &p.num_buses
                          : key == "input_ports"  ? &p.input_ports
                          : key == "output_ports" ? &p.output_ports
                                                  : nullptr;
    double* number = key == "bandwidth_mbps"       ? &p.bandwidth_MBps
                     : key == "latency_us"         ? &p.latency_us
                     : key == "overhead_us"        ? &p.per_message_overhead_us
                     : key == "relative_cpu_speed" ? &p.relative_cpu_speed
                     : key == "fabric_links"       ? &p.fabric_capacity_links
                                                   : nullptr;
    if (count == nullptr && number == nullptr) {
      in.fail("unknown key '" + std::string(key) + "'");
    }
    const double value =
        count != nullptr ? static_cast<double>(in.integer<std::int64_t>(1, key))
                         : in.number(1, key);
    const std::string error = Platform::field_error(key, value);
    if (!error.empty()) in.fail(std::string(key) + " " + error);
    if (count != nullptr) {
      *count = static_cast<std::int32_t>(value);  // the rule bounds counts
    } else {
      *number = value;
    }
    have_nodes = have_nodes || key == "nodes";
  }
  if (!have_nodes) throw Error("platform file missing 'nodes'");
  return p;
}

Platform read_platform_file(const std::string& path) {
  return read_platform(trace::MappedFile::open(path).view());
}

}  // namespace osim::dimemas
