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
// Exit codes follow common/exit_codes.hpp in every mode: 0 clean, 1
// semantically invalid, 3 unreadable, 4 damaged but salvageable.
//
// --fingerprint prints the pipeline::ReplayContext content fingerprint of
// the summary-level replay (no timeline, comms or metrics recording) that
// `osim_replay --cache-dir` stores for the same scenario flags
// (serve::ScenarioSpec, registered and lowered exactly as osim_replay does,
// range checks included) or --platform file: the content address of that
// object in a persistent store (see osim_cache). With --cache-dir, the
// object path and its presence are printed too. It cannot be combined with
// --validate or --validate-only (usage error). It is not an osim_client
// ticket: tickets address the report-level scenario (metrics on). Without
// --fingerprint no scenario is read, so the scenario flags, --platform and
// --cache-dir are usage errors there rather than silently ignored.
//
//   osim_inspect --trace /tmp/cg.original.trace
//   osim_inspect --trace t.trace --validate-only
//   osim_inspect --trace t.trace --validate       # + damage triage
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
  serve::ScenarioSpec spec;
  bool validate_only = false;
  bool validate = false;
  bool fingerprint = false;
  std::string platform_path;
  std::string cache_dir;

  Flags flags("osim_inspect: summarize and validate a trace file");
  flags.add("trace", &spec.trace_path, "trace file to inspect (required)");
  flags.add("validate-only", &validate_only,
            "exit after structural validation and semantic lint");
  flags.add("validate", &validate,
            "like --validate-only, but salvage damaged input first and "
            "print a damage summary (exit 3 = unreadable, 4 = damaged "
            "but salvageable)");
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
  if (fingerprint && (validate || validate_only)) {
    throw UsageError(
        "--fingerprint cannot be combined with --validate or "
        "--validate-only");
  }

  // A trace that cannot be read at all is exit 3 in every mode; --validate
  // salvages what a damaged one still holds.
  trace::Trace t;
  trace::RecoveredTrace recovered;
  try {
    if (validate) {
      recovered = trace::read_any_file_recover(trace_path);
    } else {
      t = trace::read_any_file(trace_path);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUnreadable;
  }

  if (validate) {
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
