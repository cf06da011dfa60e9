// Shared plumbing for the paper-reproduction bench binaries: flag handling,
// per-application tracing with the paper's default setup, the standard
// original/real/ideal replay contexts each figure needs, and output
// locations for the CSV series each bench writes next to its table.
//
// Benches never call dimemas::replay directly (scripts/check.sh enforces
// this): all replays go through a pipeline::Study built from
// BenchSetup::study_options(), so --jobs parallelizes every sweep and
// repeated probes hit the study's result cache.
#pragma once

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "dimemas/platform.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "tracer/tracer.hpp"

namespace osim::bench {

struct BenchSetup {
  std::int64_t ranks = 16;       // paper: 64; 16 keeps the default run fast
  std::int64_t iterations = 8;
  std::int64_t chunks = 4;       // paper §IV: four chunks per message
  std::int64_t scale = 1;
  std::string apps = "all";      // comma list or "all"
  std::string out_dir = "bench_results";
  bool use_paper_buses = true;   // Table I values; false → calibrate
  /// MPI progress model spec ("" = offload; see dimemas/progress.hpp).
  /// Applied to every context scenarios() builds.
  std::string progress;
  /// The shared execution flags every replay-running binary takes: --jobs,
  /// --cache-dir, --perf-json, the report path (registered here as
  /// --study-report: per-scenario makespans, wall times, cache behaviour),
  /// and the supervision flags (--scenario-timeout, --study-deadline,
  /// --canonical-report).
  RunOptions run;
  /// Wall-clock zero for --perf-json (constructed with the setup, so the
  /// record covers the whole bench including tracing).
  PerfRecorder perf{"bench"};

  /// Registers the shared flags and parses argv. Returns false on --help.
  /// When any supervision flag was given, installs the graceful-shutdown
  /// signal handlers (common/signals.hpp) so SIGINT/SIGTERM drain the
  /// sweep instead of killing it.
  bool parse(const std::string& description, int argc, const char* const* argv,
             Flags* extra = nullptr);

  /// The applications selected by --apps, in registry order.
  std::vector<const apps::MiniApp*> selected_apps() const;

  apps::AppConfig app_config(const apps::MiniApp& app) const;

  overlap::OverlapOptions overlap_options() const;

  /// Replay options shared by every context a bench builds: the parsed
  /// --progress model (default-constructed — and therefore inert — when the
  /// flag was not given).
  dimemas::ReplayOptions replay_options() const;

  /// Study sized by --jobs; replay results are cached across a bench run.
  /// Scenario recording is on when --study-report was given. Supervision
  /// flags flow through: timeouts, the study deadline and the
  /// SIGINT/SIGTERM stop flag.
  pipeline::StudyOptions study_options() const;

  /// End-of-run bookkeeping: writes the study report if --study-report was
  /// given (canonical form under --canonical-report) and the perf record
  /// if --perf-json was given (wall/CPU time, peak RSS, replay cache
  /// counters). Call once, at the end of a bench, and return its value
  /// from main: kExitOk, or kExitInterrupted when the sweep was stopped by
  /// a signal or --study-deadline (the report still gets flushed first).
  int finish(const pipeline::Study& study) const;

  /// Same, for the benches that analyze traces without replaying (no
  /// study): writes the perf record only.
  int finish() const;

  /// Marenostrum-like platform with the app's Table I bus count.
  dimemas::Platform platform_for(const apps::MiniApp& app) const;

  /// Ensures out_dir exists and returns out_dir/name.
  std::string out_path(const std::string& name) const;
};

/// Traces `app` under the setup (prints a progress line to stderr).
tracer::TracedRun trace(const BenchSetup& setup, const apps::MiniApp& app,
                        bool record_access_log = false);

/// Traces every app in `selected`, in parallel on the study's pool.
/// Each trace is deterministic and shares no state with the others (the
/// mini-app registry is immutable and mpisim keeps all simulation state per
/// run), so the returned runs are identical to serial tracing.
std::vector<tracer::TracedRun> trace_all(
    const BenchSetup& setup,
    const std::vector<const apps::MiniApp*>& selected,
    pipeline::Study& study);

/// The three replay contexts the paper derives from every traced run:
/// non-overlapped, overlapped with the measured patterns, overlapped with
/// ideal patterns — all on the app's Table I platform.
struct AppScenarios {
  pipeline::ReplayContext original;
  pipeline::ReplayContext real;
  pipeline::ReplayContext ideal;
};

AppScenarios scenarios(const BenchSetup& setup, const apps::MiniApp& app,
                       const tracer::TracedRun& traced);

/// The catch-all of every bench main: prints `e` and returns the exit code,
/// kExitUsage for a bad command line (unknown flag, out-of-range value),
/// kExitError otherwise.
int report_error(const std::exception& e);

}  // namespace osim::bench
