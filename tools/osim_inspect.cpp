// osim_inspect — summarize a trace file: record counts, communication
// volumes, message-size distribution, per-rank structure.
//
// The summary is structure-checked: a trace that fails lint::check_structure
// — the replayer's precondition (unmatched traffic, leaked requests,
// mismatched collectives) — is rejected with its per-record diagnostics
// (exit 1) instead of summarized. Whether a trace is a valid MPI program,
// and what a damaged binary trace still holds, is osim_lint's question.
//
// --fingerprint prints the pipeline::ReplayContext content fingerprint of
// the summary-level replay (no timeline, comms or metrics recording) that
// `osim_replay --cache-dir` stores for the same scenario flags
// (serve::ScenarioSpec, registered and lowered exactly as osim_replay does,
// range checks included) or --platform file: the content address of that
// object in a persistent store (see osim_cache). With --cache-dir, the
// object path and its presence are printed too. It is not an osim_client
// ticket: tickets address the report-level scenario (metrics on). Without
// --fingerprint no scenario is read, so the scenario flags, --platform and
// --cache-dir are usage errors there rather than silently ignored.
//
// Exit codes follow common/exit_codes.hpp: 0 success, 1 structurally
// invalid trace, 2 bad command line, 3 unreadable trace.
//
//   osim_inspect --trace /tmp/cg.original.trace
//   osim_inspect --trace t.trace --fingerprint --bandwidth 250 --buses 6
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "lint/lint.hpp"
#include "pipeline/context.hpp"
#include "serve/job.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "trace/summary.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  serve::ScenarioSpec spec;
  bool fingerprint = false;
  std::string platform_path;
  std::string cache_dir;

  Flags flags(
      "osim_inspect: summarize a structurally valid trace file, or print "
      "its scenario fingerprint (osim_lint verifies traces)");
  flags.add("trace", &spec.trace_path, "trace file to inspect (required)");
  flags.add("fingerprint", &fingerprint,
            "print the content fingerprint of the summary-level replay of "
            "this trace under the scenario flags (the object osim_replay "
            "--cache-dir stores — see osim_cache)");
  flags.add("platform", &platform_path,
            "fingerprint: platform file; sets the network, so the network "
            "flags cannot be combined with it");
  std::vector<std::string> fingerprint_flags = spec.register_flags(flags);
  flags.add("cache-dir", &cache_dir,
            "fingerprint: also print the object path in this scenario "
            "store and whether it is present");
  fingerprint_flags.insert(fingerprint_flags.end(), {"platform", "cache-dir"});
  if (!flags.parse(argc, argv)) return 0;
  if (!fingerprint) {
    // Only the fingerprint reads a scenario; elsewhere these flags would
    // be accepted and ignored.
    for (const std::string& name : fingerprint_flags) {
      if (flags.given(name)) {
        throw UsageError(strprintf(
            "--%s only applies with --fingerprint", name.c_str()));
      }
    }
  }
  serve::reject_network_flags_with_platform(flags, platform_path);
  const std::string& trace_path = spec.trace_path;
  if (trace_path.empty()) throw UsageError("--trace is required");

  // A trace that cannot be read is exit 3 in both modes.
  trace::Trace t;
  try {
    t = trace::read_any_file(trace_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUnreadable;
  }

  if (fingerprint) {
    const dimemas::Platform platform =
        serve::platform_for(spec, t.num_ranks, platform_path);
    // The store holds summary-level replays only, so that is the scenario
    // addressed: the spec's options with nothing recorded.
    dimemas::ReplayOptions options = serve::options_for(spec);
    options.collect_metrics = false;
    const pipeline::ReplayContext context(std::move(t), platform, options);
    std::printf("%s\n", pipeline::to_hex(context.fingerprint()).c_str());
    if (!cache_dir.empty()) {
      store::ScenarioStore cache(cache_dir);
      const std::string path = cache.object_path(context.fingerprint());
      const bool present = std::filesystem::exists(path);
      std::printf("object: %s (%s)\n", path.c_str(),
                  present ? "present" : "absent");
    }
    return kExitOk;
  }

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
