#include "bench_util.hpp"

#include <limits>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/signals.hpp"
#include "common/strings.hpp"
#include "pipeline/report.hpp"

namespace osim::bench {

bool BenchSetup::parse(const std::string& description, int argc,
                       const char* const* argv, Flags* extra) {
  Flags own(description);
  Flags& flags = extra != nullptr ? *extra : own;
  flags.add("ranks", &ranks, "simulated MPI ranks (paper: 64)");
  flags.add("iterations", &iterations, "application iterations");
  flags.add("chunks", &chunks, "chunks per message (paper: 4)");
  flags.add("scale", &scale, "problem size multiplier");
  flags.add("apps", &apps, "comma list of apps, or 'all'");
  flags.add("out-dir", &out_dir, "directory for CSV outputs");
  flags.add("paper-buses", &use_paper_buses,
            "use the paper's Table I bus counts");
  flags.add("progress", &progress,
            "MPI progress model: 'offload' (default), 'app', or "
            "'thread[,tax=F]'");
  run.register_flags(flags, "study-report",
                     "write a JSON study report (per-scenario makespans, "
                     "wall times, cache behaviour) to this path");
  run.register_supervision_flags(flags);
  if (!flags.parse(argc, argv)) return false;
  constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
  require_flag_range("ranks", ranks, 1, kMaxInt32);
  require_flag_range("iterations", iterations, 1, kMaxInt32);
  require_flag_range("scale", scale, 1, kMaxInt32);
  require_flag_range("chunks", chunks, 1, overlap::kMaxChunks);
  // Graceful shutdown is opt-in via the supervision flags: unsupervised
  // benches keep the stock Ctrl-C behaviour.
  if (run.supervision_requested()) install_graceful_shutdown();
  return true;
}

std::vector<const apps::MiniApp*> BenchSetup::selected_apps() const {
  if (apps == "all") return apps::registry();
  std::vector<const apps::MiniApp*> selected;
  for (const std::string& name : split(apps, ',')) {
    const auto* app = apps::find_app(trim(name));
    if (app == nullptr) {
      throw Error("unknown app '" + std::string(trim(name)) +
                  "' (try: sweep3d, pop, alya, specfem3d, nas_bt, nas_cg)");
    }
    selected.push_back(app);
  }
  return selected;
}

apps::AppConfig BenchSetup::app_config(const apps::MiniApp& app) const {
  apps::AppConfig config;
  config.ranks = static_cast<std::int32_t>(ranks);
  config.iterations = static_cast<std::int32_t>(iterations);
  config.scale = static_cast<std::int32_t>(scale);
  if (!app.supports_ranks(config.ranks)) {
    // Round up to the nearest supported count (e.g. even for nas_cg).
    while (!app.supports_ranks(config.ranks)) ++config.ranks;
  }
  return config;
}

overlap::OverlapOptions BenchSetup::overlap_options() const {
  overlap::OverlapOptions options;
  options.chunks = static_cast<int>(chunks);
  return options;
}

dimemas::ReplayOptions BenchSetup::replay_options() const {
  dimemas::ReplayOptions options;
  if (!progress.empty()) {
    options.progress = dimemas::parse_progress_spec(progress);
  }
  return options;
}

pipeline::StudyOptions BenchSetup::study_options() const {
  pipeline::StudyOptions options;
  options.jobs = static_cast<int>(run.jobs);
  options.record_scenarios = !run.report.empty();
  options.cache_dir = run.cache_dir;
  if (run.supervision_requested()) {
    options.scenario_timeout_s = run.scenario_timeout_s;
    options.study_deadline_s = run.study_deadline_s;
    options.stop_flag = shutdown_flag();
  }
  return options;
}

int BenchSetup::finish(const pipeline::Study& study) const {
  if (!run.report.empty()) {
    const std::string json = run.canonical_report
                                 ? pipeline::study_report_canonical_json(study)
                                 : pipeline::study_report_json(study);
    pipeline::write_report(run.report, json);
    std::fprintf(stderr, "[bench] study report written to %s\n",
                 run.report.c_str());
  }
  PerfRecorder record = perf;  // keeps finish() const; the copy is cheap
  record.add("cache_hits", static_cast<double>(study.cache_hits()));
  record.add("cache_misses", static_cast<double>(study.cache_misses()));
  record.add("disk_hits", static_cast<double>(study.disk_hits()));
  record.write_if(run.perf_json);
  if (study.interrupted() || shutdown_requested()) {
    std::fprintf(stderr,
                 "[bench] sweep interrupted; partial results flushed\n");
    return kExitInterrupted;
  }
  return kExitOk;
}

int BenchSetup::finish() const {
  perf.write_if(run.perf_json);
  return shutdown_requested() ? kExitInterrupted : kExitOk;
}

dimemas::Platform BenchSetup::platform_for(const apps::MiniApp& app) const {
  return dimemas::Platform::marenostrum(
      static_cast<std::int32_t>(app_config(app).ranks), app.paper_buses());
}

std::string BenchSetup::out_path(const std::string& name) const {
  std::filesystem::create_directories(out_dir);
  return out_dir + "/" + name;
}

tracer::TracedRun trace(const BenchSetup& setup, const apps::MiniApp& app,
                        bool record_access_log) {
  tracer::TracerOptions options;
  options.record_access_log = record_access_log;
  std::fprintf(stderr, "[bench] tracing %s (%d ranks, %lld iterations)...\n",
               app.name().c_str(), setup.app_config(app).ranks,
               static_cast<long long>(setup.iterations));
  return apps::trace_app(app, setup.app_config(app), options);
}

std::vector<tracer::TracedRun> trace_all(
    const BenchSetup& setup,
    const std::vector<const apps::MiniApp*>& selected,
    pipeline::Study& study) {
  return study.map(selected, [&setup](const apps::MiniApp* app) {
    return trace(setup, *app);
  });
}

AppScenarios scenarios(const BenchSetup& setup, const apps::MiniApp& app,
                       const tracer::TracedRun& traced) {
  const dimemas::Platform platform = setup.platform_for(app);
  const overlap::OverlapOptions options = setup.overlap_options();
  const dimemas::ReplayOptions replay = setup.replay_options();
  return AppScenarios{
      pipeline::make_context(traced.annotated,
                             pipeline::TraceVariant::kOriginal, options,
                             platform, replay),
      pipeline::make_context(traced.annotated,
                             pipeline::TraceVariant::kOverlapMeasured, options,
                             platform, replay),
      pipeline::make_context(traced.annotated,
                             pipeline::TraceVariant::kOverlapIdeal, options,
                             platform, replay)};
}

int report_error(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return dynamic_cast<const UsageError*>(&e) != nullptr ? kExitUsage
                                                         : kExitError;
}

}  // namespace osim::bench
