// perfbench — the repository benchmark.
//
//   perfbench --workload sweep1024|report256|serve256 --seed N --seconds S
//             --trace 0|1 [--out-dir .perfbench]
//             [--expected perfbench/expected.tsv]
//   perfbench --generate-expected perfbench/expected.tsv
//
// Prints a detail record, then as its last line one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Both records are also written to
// <out-dir>/results/<workload>[.traced].json. See perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "lint/lint.hpp"
#include "metrics/json.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "serve/job.hpp"
#include "setup.hpp"
#include "trace/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A metric whose layer a
/// workload does not reach reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"apps.trace_s", "s"},          {"apps.records", "count"},
    {"overlap.transform_s", "s"},   {"trace.write_s", "s"},
    {"trace.read_s", "s"},          {"trace.mb", "MB"},
    {"pipeline.context_s", "s"},    {"lint.trace_s", "s"},
    {"lint.match_s", "s"},          {"lint.requests_s", "s"},
    {"lint.collectives_s", "s"},    {"lint.deadlock_s", "s"},
    {"lint.hb_s", "s"},             {"lint.races_s", "s"},
    {"lint.overlap_s", "s"},        {"lint.diagnostics", "count"},
    {"lint.info_advisories", "count"}, {"dimemas.replay_s", "s"},
    {"dimemas.des_events", "count"}, {"dimemas.events_per_s", "1/s"},
    {"dimemas.sim_makespan_s", "s"}, {"study.run_s", "s"},
    {"study.worker_util", "ratio"}, {"study.misses", "count"},
    {"report.json_s", "s"},         {"report.mb", "MB"},
    {"report.lint_block_mb", "MB"}, {"store.flush_s", "s"},
    {"store.writes", "count"},      {"store.mb", "MB"},
    {"store.hits", "count"},        {"serve.rtt_repeat_ms", "ms"},
    {"serve.rtt_fresh_ms", "ms"},   {"serve.dedupe_memory", "count"},
    {"serve.dedupe_store", "count"}, {"serve.replays", "count"},
    {"serve.busy_rejects", "count"}, {"serve.hit_frac", "ratio"},
};

/// Resolves the per-layer metrics: values the workload measured itself,
/// else the inclusive time of the span named by the metric ("lint.hb_s" ->
/// span "lint.hb"), else the counter of that name, else 0.
std::vector<Metric> layer_metrics(const RunResult& result) {
  const std::map<std::string, Spans::Total> totals = spans().totals();
  std::map<std::string, double> values;
  for (const Metric& metric : result.per_layer) values[metric.name] = metric.value;
  auto value_of = [&](const std::string& name) {
    if (const auto it = values.find(name); it != values.end()) return it->second;
    if (name.size() > 2 && name.ends_with("_s")) {
      const auto it = totals.find(name.substr(0, name.size() - 2));
      if (it != totals.end()) return it->second.total_s;
    }
    return spans().counter(name);
  };
  std::vector<Metric> metrics;
  for (const LayerMetric& layer : kLayerMetrics) {
    double value = value_of(layer.name);
    if (std::string_view(layer.name) == "dimemas.events_per_s") {
      const double replay_s = value_of("dimemas.replay_s");
      value = replay_s > 0.0 ? value_of("dimemas.des_events") / replay_s : 0.0;
    }
    metrics.push_back({layer.name, value, layer.unit});
  }
  return metrics;
}

void write_metrics(osim::metrics::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& metric : metrics) {
    w.key(metric.name).begin_object();
    w.key("value").value(metric.value);
    w.key("unit").value(metric.unit);
    w.end_object();
  }
  w.end_object();
}

/// Throughput of the last untraced run of `workload` from its detail
/// record, or 0 when there is none.
double untraced_ops_per_s(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::string needle = "\"ops_per_s\":{\"value\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
}

int run(const std::string& workload, const RunConfig& config,
        const std::string& out_dir) {
  RunResult result;
  if (workload == "sweep1024") {
    result = run_sweep(config);
  } else if (workload == "report256") {
    result = run_report(config);
  } else if (workload == "serve256") {
    result = run_serve(config, PERFBENCH_SERVE_BINARY);
  } else {
    throw osim::UsageError("unknown workload '" + workload +
                           "' (sweep1024, report256, serve256)");
  }
  const std::int64_t failed = result.attempted - result.ok;
  const bool correct = result.sound && failed == 0 && result.attempted > 0;
  const std::vector<Metric> metrics =
      config.traced ? layer_metrics(result) : result.end_to_end;

  const std::string results_dir = out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  const std::string base = results_dir + "/" + workload;
  osim::metrics::JsonWriter detail;
  detail.begin_object();
  detail.key("workload").value(workload);
  detail.key("seed").value(static_cast<std::uint64_t>(config.seed));
  detail.key("seconds").value(config.seconds);
  detail.key("traced").value(config.traced);
  detail.key("correct").value(correct);
  detail.key("attempted").value(result.attempted);
  detail.key("failed").value(failed);
  detail.key("problems").begin_array();
  for (const std::string& problem : result.problems) detail.value(problem);
  detail.end_array();
  detail.key("end_to_end");
  write_metrics(detail, result.end_to_end);
  detail.key("notes");
  write_metrics(detail, result.notes);
  if (config.traced) {
    detail.key("per_layer");
    write_metrics(detail, metrics);
    // Tracing overhead: throughput lost against the last untraced run.
    const double untraced = untraced_ops_per_s(base + ".json");
    const double traced = result.end_to_end[1].value;
    detail.key("tracing_overhead").begin_object();
    detail.key("untraced_ops_per_s").value(untraced);
    detail.key("traced_ops_per_s").value(traced);
    if (untraced > 0.0) {
      detail.key("throughput_loss_pct").value(100.0 * (1.0 - traced / untraced));
    } else {
      detail.key("throughput_loss_pct").null();
    }
    detail.end_object();
  }
  detail.end_object();
  std::string record = detail.str();
  std::printf("%s\n", record.c_str());
  if (config.traced) {
    std::string spans_json;
    spans().write_json(spans_json);
    record.pop_back();  // splice the spans in as one more member
    record += ",\"spans\":" + spans_json + "}";
  }
  write_file(base + (config.traced ? ".traced.json" : ".json"), record);

  osim::metrics::JsonWriter line;
  line.begin_object();
  line.key("correct").value(correct);
  line.key("attempted").value(result.attempted);
  line.key("failed").value(failed);
  line.key("metrics");
  write_metrics(line, metrics);
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  return 0;
}

}  // namespace

void generate_expected(const std::string& path, const std::string& work_dir) {
  ExpectedTable table;
  osim::pipeline::StudyOptions options;
  options.jobs = kJobs;
  osim::pipeline::Study pool(options);

  struct Job {
    TraceFile file;
    double bandwidth;
    bool metrics;  // the report and serve paths replay with metrics on
    bool lint;
  };
  std::vector<Job> jobs;
  for (const TraceFile& file : write_traces(1024, work_dir + "/t1024")) {
    for (const double bw : kSweepBandwidths) jobs.push_back({file, bw, false, false});
  }
  const std::vector<TraceFile> files256 = write_traces(256, work_dir + "/t256");
  for (std::size_t t = 0; t < files256.size(); ++t) {
    const TraceFile& file = files256[t];
    jobs.push_back({file, kReportBandwidth, true, true});
    for (const double bw : kServeWarmBandwidths) jobs.push_back({file, bw, true, false});
    for (int round = 0; round < kServeFreshPool; ++round) {
      jobs.push_back({file, serve_fresh_bandwidth(t, round), true, false});
    }
  }
  const std::vector<Expected> rows = pool.map(jobs, [](const Job& job) {
    const osim::trace::Trace trace = osim::trace::read_any_file(job.file.path);
    osim::serve::ScenarioSpec spec;
    spec.bandwidth = job.bandwidth;
    osim::dimemas::ReplayOptions replay;
    if (job.metrics) replay = osim::serve::options_for(spec);
    const osim::dimemas::Platform platform =
        osim::serve::platform_for(spec, trace.num_ranks);
    const osim::dimemas::SimResult sim = osim::pipeline::run_scenario(
        osim::pipeline::ReplayContext(trace, platform, replay));
    Expected row{sim.makespan, sim.des_events, -1};
    if (job.lint) {
      osim::lint::LintOptions lint_options;
      lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
      row.lint_errors = static_cast<std::int64_t>(
          osim::lint::lint_trace(trace, lint_options).num_errors());
    }
    return row;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    table.add(scenario_key(jobs[i].file.app, jobs[i].file.variant,
                           jobs[i].file.ranks, jobs[i].bandwidth),
              rows[i]);
  }
  table.save(path,
             "# Expected simulated results, one scenario per line:\n"
             "# <app>.<variant>@<ranks>/<MB/s> <makespan_s, hex float> "
             "<des_events> <lint errors, -1 = not checked>\n"
             "# Regenerate: perfbench --generate-expected <this file>\n");
}

}  // namespace perfbench

int main(int argc, char** argv) try {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::int64_t trace = 0;
  std::string out_dir = ".perfbench";
  std::string expected_path = "perfbench/expected.tsv";
  std::string generate;
  osim::Flags flags("perfbench: the overlapsim repository benchmark");
  flags.add("workload", &workload, "sweep1024 | report256 | serve256");
  flags.add("seed", &seed, "seed of the generated request order");
  flags.add("seconds", &seconds, "minimum length of the timed phase");
  flags.add("trace", &trace, "1 = traced run reporting per-layer metrics");
  flags.add("out-dir", &out_dir, "scratch and results directory");
  flags.add("expected", &expected_path, "expected-results table");
  flags.add("generate-expected", &generate,
            "recompute the expected-results table into this path and exit");
  if (!flags.parse(argc, argv)) return 0;

  const std::string work_dir =
      out_dir + "/work/" + std::to_string(static_cast<long long>(getpid()));
  perfbench::remove_tree(work_dir);
  if (!generate.empty()) {
    perfbench::generate_expected(generate, work_dir);
    perfbench::remove_tree(work_dir);
    return 0;
  }
  const perfbench::ExpectedTable expected =
      perfbench::ExpectedTable::load(expected_path);
  perfbench::RunConfig config;
  config.seed = static_cast<std::uint64_t>(seed);
  config.seconds = seconds;
  config.traced = trace != 0;
  config.work_dir = work_dir;
  config.expected = &expected;
  perfbench::spans().enable(config.traced);
  try {
    const int code = perfbench::run(workload, config, out_dir);
    perfbench::remove_tree(work_dir);
    return code;
  } catch (...) {
    perfbench::remove_tree(work_dir);
    throw;
  }
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
