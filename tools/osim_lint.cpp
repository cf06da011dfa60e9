// osim_lint — trace semantic verifier, the one command that answers "is
// this trace a valid MPI program the replayer can run?".
//
// Statically checks that a trace is a semantically valid MPI program
// (matched point-to-point traffic, well-formed request lifecycles, no
// deadlock, consistent collectives), runs the happens-before analyses
// (communication races, overlap-hazard advisories), and, given an
// original / transformed pair, checks that the overlap transformation
// preserved the message structure.
//
// Overlap advisories are info-level and collapsed: per code (zero-window,
// postponed-wait) at most 8 exemplars with their clock evidence, one
// count line per rank (zero-window-count, postponed-wait-count) and one
// overlap-summary. Warnings and errors are always listed in full.
//
// Every trace is read by the salvaging reader (trace::read_any_file_recover).
// A damaged binary trace that still holds records gets its damage report on
// stderr — stdout stays one text, csv or json document — and the salvage is
// linted.
//
// Exit codes follow common/exit_codes.hpp: 0 = clean under --fail-on,
// 1 = findings at or above --fail-on (diagnostics on stdout), 2 = bad
// command line, 3 = a trace could not be read or nothing of it was
// salvageable, 4 = a trace was damaged and only its salvage was linted
// (whatever the findings).
//
//   osim_lint --trace /tmp/cg.original.trace
//   osim_lint --original /tmp/cg.original.trace --transformed /tmp/cg.overlap_real.trace
//   osim_lint --trace t.trace --format json --platform marenostrum.cfg
//   osim_lint --trace t.trace --jobs 4 --cache-dir ~/.cache/osim
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "common/strings.hpp"
#include "dimemas/platform_io.hpp"
#include "lint/lint.hpp"
#include "pipeline/lint_cache.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  PerfRecorder perf("osim_lint");
  std::string trace_path;
  std::string original_path;
  std::string transformed_path;
  std::string platform_path;
  std::string format = "text";
  std::string fail_on = "error";
  std::int64_t eager_threshold = -1;  // sentinel: not set on the command line
  RunOptions run;

  Flags flags(
      "osim_lint: verify that a trace is a semantically valid MPI program "
      "(matching, request lifecycles, deadlock, collectives, races, overlap "
      "hazards, and — with --original/--transformed — overlap-transform "
      "safety). Overlap advisories are collapsed to per-rank counts plus at "
      "most 8 exemplars per code; warnings and errors are listed in full. "
      "A damaged binary trace is linted from its salvage (exit 4)");
  flags.add("trace", &trace_path, "trace file to lint");
  flags.add("original", &original_path,
            "original trace of an original/transformed pair");
  flags.add("transformed", &transformed_path,
            "transformed trace to lint and check against --original");
  flags.add("platform", &platform_path,
            "platform file; its eager threshold configures the deadlock and "
            "happens-before passes");
  flags.add("format", &format, "diagnostic output format (text, csv, json)");
  flags.add("fail-on", &fail_on,
            "lowest severity that fails the run (warning, error)");
  flags.add("eager-threshold", &eager_threshold,
            "rendezvous cutoff in bytes; overrides --platform (-1 = the "
            "--platform file's threshold, else 16 KiB)");
  run.register_flags(flags, nullptr, "");
  if (!flags.parse(argc, argv)) return 0;

  if (format != "text" && format != "csv" && format != "json") {
    throw UsageError("--format must be 'text', 'csv' or 'json'");
  }
  lint::Severity fail_severity;
  if (fail_on == "warning") {
    fail_severity = lint::Severity::kWarning;
  } else if (fail_on == "error") {
    fail_severity = lint::Severity::kError;
  } else {
    throw UsageError("--fail-on must be 'warning' or 'error'");
  }
  const bool pair_mode = !original_path.empty() || !transformed_path.empty();
  if (pair_mode && (original_path.empty() || transformed_path.empty())) {
    throw UsageError("--original and --transformed must be given together");
  }
  if (!pair_mode && trace_path.empty()) {
    throw UsageError("--trace (or --original/--transformed) is required");
  }
  if (pair_mode && !trace_path.empty()) {
    throw UsageError("--trace and --original/--transformed are exclusive");
  }
  if (eager_threshold < -1) {
    throw UsageError(strprintf(
        "--eager-threshold must be >= 0 bytes, or -1 for the platform's "
        "threshold (got %lld)",
        static_cast<long long>(eager_threshold)));
  }
  lint::LintOptions options;
  if (!platform_path.empty()) {
    options.eager_threshold_bytes =
        dimemas::read_platform_file(platform_path).eager_threshold_bytes;
  }
  if (eager_threshold >= 0) {
    // An explicit threshold wins over the platform file.
    options.eager_threshold_bytes =
        static_cast<std::uint64_t>(eager_threshold);
  }
  options.jobs = run.resolved_jobs();
  lint::LintStats stats;
  options.stats = &stats;

  bool salvaged = false;
  const auto read_trace = [&salvaged](const std::string& path) {
    trace::RecoveredTrace recovered;
    try {
      recovered = trace::read_any_file_recover(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(kExitUnreadable);
    }
    if (!recovered.damage.clean()) {
      std::fprintf(stderr, "%s", recovered.damage.render_text().c_str());
      if (recovered.damage.unusable) {
        std::fprintf(stderr, "error: %s: nothing salvageable\n",
                     path.c_str());
        std::exit(kExitUnreadable);
      }
      std::fprintf(stderr, "%s: damaged but salvageable\n", path.c_str());
      salvaged = true;
    }
    return std::move(recovered.trace);
  };

  std::unique_ptr<store::ScenarioStore> cache;
  if (!run.cache_dir.empty()) {
    cache = std::make_unique<store::ScenarioStore>(run.cache_dir);
  }

  lint::Report report;
  std::string subject;
  if (pair_mode) {
    const trace::Trace original = read_trace(original_path);
    const trace::Trace transformed = read_trace(transformed_path);
    // The transformed trace must stand on its own *and* faithfully encode
    // the original's message structure. Pair results are not cached: the
    // transform check keys on two traces, not one.
    report = lint::lint_trace(transformed, options);
    report.merge(lint::lint_transform(original, transformed));
    subject = transformed_path;
  } else {
    const trace::Trace t = read_trace(trace_path);
    bool cache_hit = false;
    report = pipeline::lint_with_cache(t, options, cache.get(), &cache_hit);
    if (cache_hit) {
      std::fprintf(
          stderr, "[cache] served from %s\n",
          cache->object_path(pipeline::lint_fingerprint(t, options)).c_str());
    }
    subject = trace_path;
  }

  if (format == "json") {
    std::printf("%s\n", report.render_json().c_str());
  } else if (format == "csv") {
    std::printf("%s", report.render_csv().c_str());
  } else if (!report.clean()) {
    std::printf("%s", report.render_text().c_str());
  } else {
    std::printf("%s: clean\n", subject.c_str());
  }
  perf.add("findings", static_cast<double>(report.diagnostics().size()));
  perf.add("hb_peak_live_snapshots",
           static_cast<double>(stats.hb_peak_live_snapshots));
  perf.write_if(run.perf_json);
  if (salvaged) return kExitSalvaged;
  return report.has_at_least(fail_severity) ? kExitError : kExitOk;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
