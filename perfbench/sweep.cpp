// sweep1024 — the paper's what-if study at scale.
//
// One operation is one scenario: a trace at one bandwidth, evaluated by
// Study::makespan. One pass is one Study over every scenario, with a fresh
// empty store (so write-behind runs) and a fixed pool of kJobs threads; the
// caller waits for each study before starting the next (closed loop, one
// caller). Scenarios are handed to the pool longest-first (see
// sweep_order), so every pass, whatever the seed, runs the same schedule.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/study.hpp"
#include "serve/job.hpp"
#include "setup.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 1024;
/// Needs 40 scenarios, so two passes (44): the 75th percentile then sits
/// among the second-long overlap replays just below the eight
/// pop/specfem3d ones (3-5 s), and the median among the four nas_cg
/// overlap replays rather than between two groups.
constexpr double kTailPercentile = 75.0;

struct Scenario {
  std::size_t trace = 0;
  double bandwidth = 0.0;
  std::string key;
};

struct Outcome {
  osim::pipeline::Fingerprint fingerprint;
  double makespan = 0.0;
  double latency_ms = 0.0;
};

/// The platform every workload uses: osim_replay's defaults at `bandwidth`.
osim::dimemas::Platform platform_at(double bandwidth, int ranks) {
  osim::serve::ScenarioSpec spec;
  spec.bandwidth = bandwidth;
  return osim::serve::platform_for(spec, ranks);
}

/// Longest first, so a pass does not end on one straggling replay:
/// overlap_real before original, bigger trace files first, lower (slower)
/// bandwidths first. The order is fixed; the seed does not change it,
/// because a reordered pass ends on a different straggler.
/// A trace byte-identical to an earlier one (alya's overlap transform finds
/// nothing to overlap) is left out: its scenarios are the same ones again,
/// which the Study would serve from its cache or replay a second time
/// depending on thread timing, so the work in a pass would vary by run.
std::vector<Scenario> sweep_order(const std::vector<TraceFile>& files) {
  std::vector<std::size_t> traces;
  std::vector<std::string> contents;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::ifstream in(files[i].path, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    if (std::find(contents.begin(), contents.end(), bytes) == contents.end()) {
      contents.push_back(std::move(bytes));
      traces.push_back(i);
    }
  }
  std::stable_sort(traces.begin(), traces.end(), [&](std::size_t a, std::size_t b) {
    const bool a_overlap = files[a].variant != "original";
    const bool b_overlap = files[b].variant != "original";
    if (a_overlap != b_overlap) return a_overlap;
    return files[a].bytes > files[b].bytes;
  });
  std::vector<Scenario> order;
  for (const std::size_t t : traces) {
    for (const double bw : kSweepBandwidths) {
      order.push_back(Scenario{
          t, bw, scenario_key(files[t].app, files[t].variant, kRanks, bw)});
    }
  }
  return order;
}

/// Figures the traced run sums over all passes.
struct Totals {
  double replay_s = 0.0;   // Study-measured replay wall times
  double op_s = 0.0;       // makespan() call times
  double flush_s = 0.0;    // Study teardown (final write-behind flush)
  double misses = 0.0;
  double disk_hits = 0.0;
  double des_events = 0.0;
  double sim_makespan_s = 0.0;
  double store_objects = 0.0;
  double store_bytes = 0.0;
};

}  // namespace

RunResult run_sweep(const RunConfig& config) {
  RunResult result;
  std::vector<TraceFile> files;
  std::string setup_dir;
  const double setup_s = timed_setup(
      config,
      [&](const std::string& dir, bool) { files = write_traces(kRanks, dir); },
      &setup_dir);

  const std::vector<Scenario> order = sweep_order(files);
  reset_peak_rss(getpid());
  std::vector<double> latencies;
  double timed_s = 0.0;
  double report_bytes = 0.0;
  Totals totals;
  for (int pass = 0; timed_s < config.seconds || latencies.size() < min_samples(kTailPercentile);
       ++pass) {
    const std::string store_dir =
        config.work_dir + "/store" + std::to_string(pass);
    const Clock::time_point start = Clock::now();
    auto study_span = spans().open("study.run");
    osim::pipeline::StudyOptions options;
    options.jobs = kJobs;
    options.cache_dir = store_dir;
    options.record_scenarios = true;
    auto study = std::make_unique<osim::pipeline::Study>(options);
    // Each trace is read and validated once per pass, on the pool.
    const std::vector<std::optional<osim::pipeline::ReplayContext>> bases =
        study->map(files, [&](const TraceFile& file) {
          std::shared_ptr<const osim::trace::Trace> trace;
          {
            auto span = spans().open("trace.read", study_span.id());
            trace = std::make_shared<const osim::trace::Trace>(
                osim::trace::read_any_file(file.path));
          }
          spans().count("trace.mb", static_cast<double>(file.bytes) / 1e6);
          auto span = spans().open("pipeline.context", study_span.id());
          return std::optional<osim::pipeline::ReplayContext>(
              std::in_place, trace, platform_at(kSweepBandwidths[0], kRanks));
        });
    const std::vector<Outcome> outcomes =
        study->map(order, [&](const Scenario& scenario) {
          auto span = spans().open("op", study_span.id());
          const Clock::time_point begin = Clock::now();
          const osim::pipeline::ReplayContext context =
              bases[scenario.trace]->with_bandwidth(scenario.bandwidth);
          Outcome outcome;
          outcome.fingerprint = context.fingerprint();
          outcome.makespan = study->makespan(context, scenario.key);
          outcome.latency_ms = 1e3 * seconds_since(begin);
          return outcome;
        });
    std::string report;
    {
      auto span = spans().open("report.json");
      report = osim::pipeline::study_report_json(*study);
    }
    spans().count("report.mb", static_cast<double>(report.size()) / 1e6);
    for (const osim::pipeline::ScenarioRecord& record : study->scenarios()) {
      if (!record.cache_hit) totals.replay_s += record.wall_s;
    }
    totals.misses += static_cast<double>(study->cache_misses());
    totals.disk_hits += static_cast<double>(study->disk_hits());
    {
      auto span = spans().open("store.flush");
      const Clock::time_point flush_start = Clock::now();
      study.reset();
      totals.flush_s += seconds_since(flush_start);
    }
    study_span.close();
    timed_s += seconds_since(start);
    report_bytes += static_cast<double>(report.size());

    // Untimed check: every scenario was published to the store with the
    // makespan and DES event count this tree computes.
    osim::store::ScenarioStore store(store_dir);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Outcome& outcome = outcomes[i];
      ++result.attempted;
      latencies.push_back(outcome.latency_ms);
      totals.op_s += outcome.latency_ms / 1e3;
      const Expected* expected = config.expected->find(order[i].key);
      const std::optional<osim::store::ScenarioArtifact> artifact =
          store.load(outcome.fingerprint);
      if (expected != nullptr && artifact && outcome.makespan == expected->makespan_s &&
          artifact->makespan == expected->makespan_s &&
          artifact->des_events == expected->des_events) {
        ++result.ok;
      } else if (result.problems.size() < 8) {
        result.problems.push_back("sweep scenario mismatch: " + order[i].key);
      }
      if (artifact) {
        totals.des_events += static_cast<double>(artifact->des_events);
        totals.sim_makespan_s += artifact->makespan;
      }
    }
    const osim::store::StoreStats store_stats = store.stats();
    totals.store_objects += static_cast<double>(store_stats.objects);
    totals.store_bytes += static_cast<double>(store_stats.bytes);
    remove_tree(store_dir);
  }
  const double n = static_cast<double>(latencies.size());
  add_end_to_end(result, setup_s, latencies, kTailPercentile, timed_s, peak_rss_mb(getpid()),
                 report_bytes / n / 1e6);
  remove_tree(setup_dir);

  if (config.traced) {
    result.per_layer = {
        {"dimemas.replay_s", totals.replay_s, "s"},
        {"dimemas.des_events", totals.des_events, "count"},
        {"dimemas.sim_makespan_s", totals.sim_makespan_s, "s"},
        {"study.run_s", timed_s, "s"},
        {"study.worker_util", totals.op_s / (timed_s * kJobs), "ratio"},
        {"study.misses", totals.misses, "count"},
        {"store.flush_s", totals.op_s - totals.replay_s + totals.flush_s, "s"},
        {"store.writes", totals.store_objects, "count"},
        {"store.mb", totals.store_bytes / 1e6, "MB"},
        {"store.hits", totals.disk_hits, "count"},
    };
  }
  return result;
}

}  // namespace perfbench
