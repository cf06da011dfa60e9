// osim_perf — the replay-core benchmark harness.
//
// Times the simulator's four hot paths over the bundled mini-apps and
// writes a versioned BENCH_replay.json for tracking and CI gating:
//
//   replay  — events/second through dimemas::replay (the DES inner loop:
//             calendar queue, arena-allocated message state, SoA record
//             streams);
//   ingest  — traces/second through binary trace ingestion (mmap'd
//             zero-copy parse, CRC footer verification);
//   study   — scenarios/second through a pipeline::Study bandwidth sweep
//             at --jobs N (thread pool + fingerprint cache overhead);
//   lint    — trace records/second through lint::lint_trace over the
//             overlapped traces, on one thread (the happens-before machine
//             dominates it).
//
// Each path runs --repetitions times; the JSON records every repetition
// plus the median, and scripts/perf_gate.py compares the medians against
// the floors in bench/perf_budget.json. Workload sizing is pinned by
// flags with stable defaults so numbers are comparable run over run.
//
//   osim_perf --repetitions 5 --out BENCH_replay.json
//   osim_perf --jobs 8 --ranks 32 --iterations 16   # a bigger workload
//
// --perf-json writes the harness's own record (wall, CPU, peak RSS and the
// four medians). A store directory (--cache-dir) is refused with exit 2:
// every path here times uncached work.
//
// This tool calls dimemas::replay directly on purpose: it times the
// engine, not the pipeline wrapper (the layering rule in scripts/check.sh
// covers bench/ and src/analysis/, not tools/).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "common/stats.hpp"
#include "dimemas/progress.hpp"
#include "dimemas/replay.hpp"
#include "lint/lint.hpp"
#include "metrics/json.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "trace/binary_io.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PathResult {
  std::string unit;            // "events_per_s", ...
  std::vector<double> runs;    // one throughput sample per repetition
  double median = 0.0;
  double work = 0.0;           // per-repetition work items (events, ...)
};

void finalize(PathResult& path) {
  path.median = osim::median(path.runs);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace osim;

  std::int64_t repetitions = 5;
  std::int64_t ranks = 16;
  std::int64_t iterations = 8;
  std::int64_t chunks = 4;
  std::int64_t sweep_points = 8;
  std::string out_path = "BENCH_replay.json";
  PerfRecorder perf("osim_perf");
  RunOptions run;

  Flags flags(
      "osim_perf: time the replay/ingest/study/lint hot paths over the "
      "bundled apps and write a versioned BENCH_replay.json");
  flags.add("repetitions", &repetitions,
            "timed repetitions per path (the JSON records each plus the "
            "median)");
  flags.add("ranks", &ranks, "simulated MPI ranks per app");
  flags.add("iterations", &iterations, "application iterations");
  flags.add("chunks", &chunks, "chunks per message for the overlap variant");
  flags.add("sweep-points", &sweep_points,
            "bandwidth points per app in the study sweep");
  flags.add("out", &out_path, "output JSON path");
  run.register_flags(flags, nullptr, "");
  if (!flags.parse(argc, argv)) return 0;
  if (repetitions < 1) throw UsageError("--repetitions must be >= 1");
  if (!run.cache_dir.empty()) {
    // The study path must replay every scenario; a disk tier would turn
    // the measurement into a store benchmark.
    throw UsageError("--cache-dir is not supported: osim_perf times "
                     "uncached replays");
  }

  // --- workload: trace every bundled app once ----------------------------
  apps::AppConfig config;
  config.ranks = static_cast<std::int32_t>(ranks);
  config.iterations = static_cast<std::int32_t>(iterations);
  overlap::OverlapOptions overlap_options;
  overlap_options.chunks = static_cast<int>(chunks);

  struct Workload {
    std::string name;
    pipeline::ReplayContext original;
    pipeline::ReplayContext overlapped;
  };
  std::vector<Workload> workloads;
  for (const apps::MiniApp* app : apps::registry()) {
    apps::AppConfig app_config = config;
    while (!app->supports_ranks(app_config.ranks)) ++app_config.ranks;
    const tracer::TracedRun traced = apps::trace_app(*app, app_config, {});
    const dimemas::Platform platform = dimemas::Platform::marenostrum(
        app_config.ranks, app->paper_buses());
    workloads.push_back(Workload{
        app->name(),
        pipeline::make_context(traced.annotated,
                               pipeline::TraceVariant::kOriginal,
                               overlap_options, platform),
        pipeline::make_context(traced.annotated,
                               pipeline::TraceVariant::kOverlapMeasured,
                               overlap_options, platform)});
    std::fprintf(stderr, "[perf] traced %s (%d ranks)\n",
                 app->name().c_str(), app_config.ranks);
  }

  // --- path 1: raw replay (events/second) --------------------------------
  PathResult replay_path;
  replay_path.unit = "events_per_s";
  for (std::int64_t rep = 0; rep < repetitions; ++rep) {
    std::uint64_t events = 0;
    const Clock::time_point start = Clock::now();
    for (const Workload& w : workloads) {
      for (const pipeline::ReplayContext* context :
           {&w.original, &w.overlapped}) {
        const dimemas::SimResult result = dimemas::replay(
            context->trace(), context->platform(), context->options());
        events += result.des_events;
      }
    }
    const double wall = seconds_since(start);
    replay_path.runs.push_back(static_cast<double>(events) / wall);
    replay_path.work = static_cast<double>(events);
  }
  finalize(replay_path);
  std::fprintf(stderr, "[perf] replay: %.3g events/s (median of %lld)\n",
               replay_path.median, static_cast<long long>(repetitions));

  // --- path 2: binary ingestion (traces/second, mmap) --------------------
  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() /
      ("osim_perf_" + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp);
  std::vector<std::string> trace_files;
  std::uint64_t ingest_bytes = 0;
  for (const Workload& w : workloads) {
    const std::string path = (tmp / (w.name + ".otb")).string();
    trace::write_binary_file(w.overlapped.trace(), path);
    ingest_bytes += std::filesystem::file_size(path);
    trace_files.push_back(path);
  }
  PathResult ingest_path;
  ingest_path.unit = "traces_per_s";
  for (std::int64_t rep = 0; rep < repetitions; ++rep) {
    const Clock::time_point start = Clock::now();
    std::size_t records = 0;
    for (const std::string& path : trace_files) {
      records += trace::read_any_file(path).total_records();
    }
    OSIM_CHECK(records > 0);
    const double wall = seconds_since(start);
    ingest_path.runs.push_back(
        static_cast<double>(trace_files.size()) / wall);
    ingest_path.work = static_cast<double>(records);
  }
  finalize(ingest_path);
  std::filesystem::remove_all(tmp);
  std::fprintf(stderr, "[perf] ingest: %.3g traces/s (median of %lld)\n",
               ingest_path.median, static_cast<long long>(repetitions));

  // --- path 3: study sweep (scenarios/second at --jobs N) ----------------
  PathResult study_path;
  study_path.unit = "scenarios_per_s";
  const int jobs = run.resolved_jobs();
  for (std::int64_t rep = 0; rep < repetitions; ++rep) {
    // A fresh study per repetition: the sweep must replay, not hit the
    // fingerprint cache of the previous repetition.
    pipeline::StudyOptions study_options;
    study_options.jobs = jobs;
    pipeline::Study study(study_options);
    std::vector<pipeline::ReplayContext> scenarios;
    for (const Workload& w : workloads) {
      const double nominal = w.original.platform().bandwidth_MBps;
      for (std::int64_t p = 0; p < sweep_points; ++p) {
        scenarios.push_back(w.overlapped.with_bandwidth(
            nominal * (0.5 + 0.25 * static_cast<double>(p))));
      }
      // Non-offload progress regimes exercise the gated hot path (pending
      // MPI queues, handshake hops), so the study throughput number also
      // covers the progress-engine axis.
      scenarios.push_back(
          w.overlapped.with_progress(dimemas::parse_progress_spec("app")));
      scenarios.push_back(
          w.overlapped.with_progress(dimemas::parse_progress_spec("thread")));
    }
    const Clock::time_point start = Clock::now();
    study.map(scenarios, [&study](const pipeline::ReplayContext& context) {
      return study.makespan(context);
    });
    const double wall = seconds_since(start);
    study_path.runs.push_back(static_cast<double>(scenarios.size()) / wall);
    study_path.work = static_cast<double>(scenarios.size());
  }
  finalize(study_path);
  std::fprintf(stderr, "[perf] study: %.3g scenarios/s at %d jobs\n",
               study_path.median, jobs);

  // --- path 4: lint (trace records/second, one thread) -------------------
  PathResult lint_path;
  lint_path.unit = "records_per_s";
  for (std::int64_t rep = 0; rep < repetitions; ++rep) {
    std::size_t records = 0;
    std::size_t diagnostics = 0;
    const Clock::time_point start = Clock::now();
    for (const Workload& w : workloads) {
      lint::LintOptions lint_options;
      lint_options.eager_threshold_bytes =
          w.overlapped.platform().eager_threshold_bytes;
      diagnostics += lint::lint_trace(w.overlapped.trace(), lint_options)
                         .diagnostics()
                         .size();
      records += w.overlapped.trace().total_records();
    }
    OSIM_CHECK(diagnostics > 0);
    const double wall = seconds_since(start);
    lint_path.runs.push_back(static_cast<double>(records) / wall);
    lint_path.work = static_cast<double>(records);
  }
  finalize(lint_path);
  std::fprintf(stderr, "[perf] lint: %.3g records/s (median of %lld)\n",
               lint_path.median, static_cast<long long>(repetitions));

  // --- BENCH_replay.json -------------------------------------------------
  char hostname[256] = "unknown";
  gethostname(hostname, sizeof(hostname) - 1);
  metrics::JsonWriter w;
  w.begin_object();
  w.key("schema").value("osim-bench-replay-v1");
  w.key("machine").begin_object();
  w.key("hostname").value(hostname);
  w.key("hardware_threads")
      .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.end_object();
  w.key("workload").begin_object();
  w.key("ranks").value(ranks);
  w.key("iterations").value(iterations);
  w.key("chunks").value(chunks);
  w.key("sweep_points").value(sweep_points);
  w.key("apps").value(static_cast<std::int64_t>(workloads.size()));
  w.key("jobs").value(static_cast<std::int64_t>(jobs));
  w.key("trace_bytes").value(ingest_bytes);
  w.end_object();
  w.key("repetitions").value(repetitions);
  w.key("paths").begin_object();
  const PathResult* paths[] = {&replay_path, &ingest_path, &study_path,
                               &lint_path};
  const char* names[] = {"replay", "ingest", "study", "lint"};
  for (int i = 0; i < 4; ++i) {
    w.key(names[i]).begin_object();
    w.key("unit").value(paths[i]->unit);
    w.key("median").value(paths[i]->median);
    w.key("work_per_repetition").value(paths[i]->work);
    w.key("runs").begin_array();
    for (const double sample : paths[i]->runs) w.value(sample);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) throw Error("cannot write " + out_path);
  std::fputs(w.str().c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote %s (replay %.3g events/s, ingest %.3g traces/s, "
              "study %.3g scenarios/s, lint %.3g records/s)\n",
              out_path.c_str(), replay_path.median, ingest_path.median,
              study_path.median, lint_path.median);
  perf.add("replay_events_per_s", replay_path.median);
  perf.add("ingest_traces_per_s", ingest_path.median);
  perf.add("study_scenarios_per_s", study_path.median);
  perf.add("lint_records_per_s", lint_path.median);
  perf.write_if(run.perf_json);
  return kExitOk;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
