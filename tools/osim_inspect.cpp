// osim_inspect — summarize a trace file: record counts, communication
// volumes, message-size distribution, per-rank structure; optionally
// validate only.
//
// --validate-only runs the semantic linter (lint::lint_trace), whose
// first passes are the replayer's structural check (lint::check_structure),
// so a trace that would replay into garbage — unmatched traffic, leaked
// requests, deadlock, mismatched collectives — is rejected here with
// per-record diagnostics. The plain summary rejects a trace that fails
// check_structure the same way.
//
// --validate additionally reads the file through the salvaging reader
// first and prints a damage summary (corrupt records, CRC mismatches,
// truncation, with byte offsets), then validates whatever was salvaged.
// Exit codes follow common/exit_codes.hpp: 0 clean, 1 semantically
// invalid, 3 unreadable, 4 damaged but salvageable.
//
// --fingerprint prints the pipeline::ReplayContext content fingerprint of
// the trace on the given platform (same flags as osim_replay's network
// setup), which is the content address of the scenario's object in a
// persistent store (see osim_cache): use it to correlate store objects
// with their inputs. With --cache-dir, the object path and its presence
// are printed too. It cannot be combined with --validate or
// --validate-only (usage error).
//
//   osim_inspect --trace /tmp/cg.original.trace
//   osim_inspect --trace t.trace --validate-only
//   osim_inspect --trace t.trace --validate       # + damage triage
//   osim_inspect --trace t.trace --fingerprint --bandwidth 250 --buses 6
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "dimemas/platform_io.hpp"
#include "faults/spec.hpp"
#include "lint/lint.hpp"
#include "pipeline/context.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "trace/summary.hpp"

namespace {

/// Prints `report` (or "<path>: valid" when clean); returns the process
/// exit code.
int print_report(const osim::lint::Report& report, const std::string& path) {
  using namespace osim;
  if (!report.clean()) {
    std::printf("%s", report.render_text().c_str());
    return report.num_errors() > 0 ? kExitError : kExitOk;
  }
  std::printf("%s: valid\n", path.c_str());
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace osim;
  std::string trace_path;
  bool validate_only = false;
  bool validate = false;
  bool fingerprint = false;
  std::string platform_path;
  double bandwidth = 250.0;
  double latency = 4.0;
  std::int64_t buses = 0;
  std::int64_t ports = 1;
  std::int64_t eager = 16 * 1024;
  std::string fault_spec;
  std::string cache_dir;

  Flags flags("osim_inspect: summarize and validate a trace file");
  flags.add("trace", &trace_path, "trace file to inspect (required)");
  flags.add("validate-only", &validate_only,
            "exit after structural validation and semantic lint");
  flags.add("validate", &validate,
            "like --validate-only, but salvage damaged input first and "
            "print a damage summary (exit 3 = unreadable, 4 = damaged "
            "but salvageable)");
  flags.add("fingerprint", &fingerprint,
            "print the ReplayContext content fingerprint of this trace on "
            "the platform given by the network flags (the scenario store's "
            "content address — see osim_cache)");
  flags.add("platform", &platform_path,
            "fingerprint: platform file; overrides the network flags");
  flags.add("bandwidth", &bandwidth, "fingerprint: link bandwidth in MB/s");
  flags.add("latency", &latency, "fingerprint: per-message latency in us");
  flags.add("buses", &buses, "fingerprint: global buses (0 = unlimited)");
  flags.add("ports", &ports, "fingerprint: input/output ports per node");
  flags.add("eager", &eager, "fingerprint: eager threshold in bytes");
  flags.add("faults", &fault_spec,
            "fingerprint: fault-injection spec hashed into the context");
  flags.add("cache-dir", &cache_dir,
            "fingerprint: also print the object path in this scenario "
            "store and whether it is present");
  if (!flags.parse(argc, argv)) return 0;
  if (trace_path.empty()) throw UsageError("--trace is required");
  if (fingerprint && (validate || validate_only)) {
    throw UsageError(
        "--fingerprint cannot be combined with --validate or "
        "--validate-only");
  }

  if (fingerprint) {
    const trace::Trace t = trace::read_any_file(trace_path);
    dimemas::Platform platform;
    if (!platform_path.empty()) {
      platform = dimemas::read_platform_file(platform_path);
      if (platform.num_nodes < t.num_ranks) {
        throw Error(strprintf("platform has %d nodes but the trace needs %d",
                              platform.num_nodes, t.num_ranks));
      }
    } else {
      platform.num_nodes = t.num_ranks;
      platform.bandwidth_MBps = bandwidth;
      platform.latency_us = latency;
      platform.num_buses = static_cast<std::int32_t>(buses);
      platform.input_ports = static_cast<std::int32_t>(ports);
      platform.output_ports = static_cast<std::int32_t>(ports);
      platform.eager_threshold_bytes = static_cast<std::uint64_t>(eager);
    }
    dimemas::ReplayOptions options;
    if (!fault_spec.empty()) options.faults = faults::parse_spec(fault_spec);
    const pipeline::ReplayContext context(t, platform, options);
    std::printf("%s\n", pipeline::to_hex(context.fingerprint()).c_str());
    const std::string dir = store::resolve_cache_dir(cache_dir);
    if (!dir.empty()) {
      store::ScenarioStore cache(dir);
      const std::string path = cache.object_path(context.fingerprint());
      const bool present = std::filesystem::exists(path);
      std::printf("object: %s (%s)\n", path.c_str(),
                  present ? "present" : "absent");
    }
    return kExitOk;
  }

  if (validate) {
    trace::RecoveredTrace recovered =
        trace::read_any_file_recover(trace_path);
    if (!recovered.damage.clean()) {
      std::printf("%s", recovered.damage.render_text().c_str());
      if (recovered.damage.unusable) {
        std::printf("%s: unreadable\n", trace_path.c_str());
        return kExitUnreadable;
      }
      // Lint the salvage so the damage triage is complete, but the exit
      // code reports the damage even when the salvage lints clean.
      print_report(lint::lint_trace(recovered.trace), trace_path);
      std::printf("%s: damaged but salvageable\n", trace_path.c_str());
      return kExitSalvaged;
    }
    return print_report(lint::lint_trace(recovered.trace), trace_path);
  }

  const trace::Trace t = trace::read_any_file(trace_path);
  if (validate_only) return print_report(lint::lint_trace(t), trace_path);
  const lint::Report structure = lint::check_structure(t);
  if (structure.num_errors() > 0) {
    std::printf("%s", structure.render_text().c_str());
    return kExitError;
  }
  std::printf("%s", trace::render(trace::summarize(t)).c_str());
  return kExitOk;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
