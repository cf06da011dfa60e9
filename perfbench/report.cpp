// report256 — the one-off `osim_replay --report` path.
//
// One operation reads one trace, builds its ReplayContext, replays it with
// metrics on, lints it cold (no store) and renders the run report with the
// lint block: exactly what serve::run_job_on_trace does for a fresh job.
// One pass runs all twelve traces once, in a seeded order; passes repeat in
// a closed loop with one caller until the run has lasted --seconds.
#include <unistd.h>

#include <memory>

#include "lint/collectives.hpp"
#include "lint/deadlock.hpp"
#include "lint/hb.hpp"
#include "lint/lint.hpp"
#include "lint/match.hpp"
#include "lint/overlap_hazards.hpp"
#include "lint/races.hpp"
#include "lint/requests.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "serve/job.hpp"
#include "setup.hpp"
#include "trace/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 256;
/// Two passes (24 reports) leave ten samples beyond the 55th percentile;
/// a run needs four passes for a 75th.
constexpr double kTailPercentile = 55.0;

/// lint::lint_trace with a span around each pass: the same passes, on one
/// thread, merged in lint_trace's canonical slot order (match, requests per
/// rank, collectives, deadlock, races + overlap), so the report is the same.
osim::lint::Report traced_lint(const osim::trace::Trace& trace,
                               const osim::lint::LintOptions& options) {
  using namespace osim::lint;
  const std::size_t num_ranks = trace.ranks.size();
  if (trace.num_ranks < 0 || num_ranks != static_cast<std::size_t>(trace.num_ranks)) {
    return lint_trace(trace, options);  // the structure pass rejects it
  }
  Report match;
  Report requests;
  Report collectives;
  Report deadlock;
  Report hb_passes;
  {
    auto span = spans().open("lint.match");
    check_matching(trace, match);
  }
  {
    auto span = spans().open("lint.requests");
    for (std::size_t r = 0; r < num_ranks; ++r) {
      check_requests_rank(trace, static_cast<osim::trace::Rank>(r), requests);
    }
  }
  {
    auto span = spans().open("lint.collectives");
    check_collectives(trace, collectives);
  }
  {
    auto span = spans().open("lint.deadlock");
    check_deadlock(trace, deadlock, options.eager_threshold_bytes);
  }
  HbAnalysis hb;
  {
    auto span = spans().open("lint.hb");
    hb = analyze_happens_before(trace, options.eager_threshold_bytes);
  }
  {
    auto span = spans().open("lint.races");
    check_races(trace, hb, hb_passes);
  }
  {
    auto span = spans().open("lint.overlap");
    check_overlap_hazards(trace, hb, hb_passes);
  }
  Report report;
  for (const Report* part : {&match, &requests, &collectives, &deadlock, &hb_passes}) {
    report.merge(*part);
  }
  return report;
}

}  // namespace

RunResult run_report(const RunConfig& config) {
  RunResult result;
  std::vector<TraceFile> files;
  std::string setup_dir;
  const double setup_s = timed_setup(
      config,
      [&](const std::string& dir, bool) { files = write_traces(kRanks, dir); },
      &setup_dir);

  osim::Rng rng(config.seed);
  reset_peak_rss(getpid());
  std::vector<double> latencies;
  double report_bytes = 0.0;
  const Clock::time_point start = Clock::now();
  double timed_s = 0.0;
  while (timed_s < config.seconds || latencies.size() < min_samples(kTailPercentile)) {
    std::vector<std::size_t> order(files.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (const std::size_t index : order) {
      const TraceFile& file = files[index];
      const Clock::time_point begin = Clock::now();
      auto op = spans().open("op");
      std::shared_ptr<const osim::trace::Trace> trace;
      {
        auto span = spans().open("trace.read");
        trace = std::make_shared<const osim::trace::Trace>(
            osim::trace::read_any_file(file.path));
      }
      osim::serve::ScenarioSpec spec;
      spec.bandwidth = kReportBandwidth;
      const osim::dimemas::Platform platform =
          osim::serve::platform_for(spec, trace->num_ranks);
      std::optional<osim::pipeline::ReplayContext> context;
      {
        auto span = spans().open("pipeline.context");
        context.emplace(trace, platform, osim::serve::options_for(spec));
      }
      osim::dimemas::SimResult sim;
      {
        auto span = spans().open("dimemas.replay");
        sim = osim::pipeline::run_scenario(*context);
      }
      osim::lint::LintOptions lint_options;
      lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
      osim::lint::Report lint;
      {
        auto span = spans().open("lint.trace");
        lint = spans().enabled() ? traced_lint(*trace, lint_options)
                                 : osim::lint::lint_trace(*trace, lint_options);
      }
      std::string report;
      {
        auto span = spans().open("report.json");
        report = osim::pipeline::replay_report_json(sim, platform, trace->app,
                                                    &lint);
      }
      op.close();
      latencies.push_back(1e3 * seconds_since(begin));
      report_bytes += static_cast<double>(report.size());
      ++result.attempted;

      if (spans().enabled()) {
        // Traced only: the size of the lint block, as the difference from
        // the report rendered without it.
        const std::string bare =
            osim::pipeline::replay_report_json(sim, platform, trace->app);
        spans().count("report.lint_block_mb",
                      static_cast<double>(report.size() - bare.size()) / 1e6);
        spans().count("report.mb", static_cast<double>(report.size()) / 1e6);
        spans().count("trace.mb", static_cast<double>(file.bytes) / 1e6);
        spans().count("dimemas.des_events", static_cast<double>(sim.des_events));
        spans().count("dimemas.sim_makespan_s", sim.makespan);
        spans().count("lint.diagnostics",
                      static_cast<double>(lint.diagnostics().size()));
        spans().count("lint.info_advisories",
                      static_cast<double>(lint.num_infos()));
      }
      const Expected* expected = config.expected->find(
          scenario_key(file.app, file.variant, kRanks, kReportBandwidth));
      if (expected != nullptr && sim.makespan == expected->makespan_s &&
          sim.des_events == expected->des_events &&
          static_cast<std::int64_t>(lint.num_errors()) == expected->lint_errors &&
          !report.empty()) {
        ++result.ok;
      } else if (result.problems.size() < 8) {
        result.problems.push_back("report mismatch: " + file.app + "." +
                                  file.variant);
      }
    }
    timed_s = seconds_since(start);
  }
  const double n = static_cast<double>(latencies.size());
  add_end_to_end(result, setup_s, latencies, kTailPercentile, timed_s, peak_rss_mb(getpid()),
                 report_bytes / n / 1e6);
  remove_tree(setup_dir);
  return result;
}

}  // namespace perfbench
