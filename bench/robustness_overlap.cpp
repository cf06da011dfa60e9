// Robustness study: how much of the overlap speedup (Figure 6(a)) survives
// on a faulty machine. Sweeps message-loss probability and all-pairs link
// degradation over the non-overlapped and overlapped-real replays of each
// application, all from one deterministic injector seed per cell.
//
// The interesting quantity is the *speedup* column: overlapped execution
// hides retransmission and degradation latency behind computation, so its
// makespan degrades more slowly than the non-overlapped one until hard
// stalls dominate. The CSV carries the injector counters (retransmits,
// hard stalls) and the fault-attributed wait time so the crossover is
// visible without re-running.
//
// Tracing is serial; the (app, scenario, original/real) cells then run
// concurrently on the --jobs study. Fault-free cells are shared through
// the study cache across the sweep.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "faults/spec.hpp"
#include "pipeline/scenario.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  std::int64_t seed = 7;
  Flags extra("robustness_overlap extra flags");
  extra.add("seed", &seed, "fault-injector seed shared by every scenario");
  if (!setup.parse(
          "robustness: overlap speedup under message loss and link "
          "degradation",
          argc, argv, &extra)) {
    return 0;
  }

  // One axis per mechanism; "clean" anchors the fault-free baseline.
  struct Scenario {
    const char* label;
    const char* spec;  // without the seed clause; added below
  };
  const Scenario scenarios[] = {
      {"clean", ""},
      {"loss-0.5%", "loss=0.005"},
      {"loss-2%", "loss=0.02"},
      {"loss-5%", "loss=0.05"},
      {"degrade-bw-50%", "degrade=any-any,bw=0.5"},
      {"degrade-bw-25%", "degrade=any-any,bw=0.25"},
      {"loss-2%+degrade-50%", "loss=0.02;degrade=any-any,bw=0.5"},
  };

  TextTable table({"app", "scenario", "T original", "T overlap real",
                   "speedup", "retransmits", "hard stalls"});
  table.set_title("overlap speedup under injected faults");
  CsvWriter csv(setup.out_path("robustness_overlap.csv"),
                {"app", "scenario", "t_original_s", "t_real_s", "speedup",
                 "retransmits", "hard_stalls", "fault_wait_s"});

  // collect_metrics gives the per-rank fault-wait attribution that
  // ScenarioRecord::fault_wait_s aggregates.
  struct Cell {
    std::size_t app;
    std::size_t scenario;
    pipeline::ReplayContext context;
    std::string label;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<Cell> cells;
  for (std::size_t a = 0; a < selected.size(); ++a) {
    const tracer::TracedRun traced = bench::trace(setup, *selected[a]);
    const bench::AppScenarios sc = bench::scenarios(setup, *selected[a],
                                                    traced);
    std::vector<pipeline::FaultScenario> fault_scenarios;
    for (const Scenario& s : scenarios) {
      std::string spec = strprintf("seed=%lld", static_cast<long long>(seed));
      if (s.spec[0] != '\0') spec += std::string(";") + s.spec;
      fault_scenarios.push_back(
          {s.label, faults::parse_spec(spec)});
    }
    dimemas::ReplayOptions with_metrics = sc.original.options();
    with_metrics.collect_metrics = true;
    const pipeline::ReplayContext original =
        sc.original.with_options(with_metrics);
    const pipeline::ReplayContext real = sc.real.with_options(with_metrics);
    const std::vector<pipeline::ReplayContext> originals =
        pipeline::cross_faults(original, fault_scenarios);
    const std::vector<pipeline::ReplayContext> reals =
        pipeline::cross_faults(real, fault_scenarios);
    for (std::size_t s = 0; s < fault_scenarios.size(); ++s) {
      cells.push_back({a, s, originals[s],
                       selected[a]->name() + "/original/" +
                           fault_scenarios[s].label});
      cells.push_back({a, s, reals[s],
                       selected[a]->name() + "/real/" +
                           fault_scenarios[s].label});
    }
  }

  pipeline::StudyOptions study_options = setup.study_options();
  study_options.record_scenarios = true;  // counters ride on the records
  pipeline::Study study(study_options);
  const std::vector<double> times =
      study.map(cells, [&study](const Cell& c) {
        return study.makespan(c.context, c.label);
      });

  // Pull the injector counters back out of the scenario records (keyed by
  // label; records accumulate in completion order).
  struct Counters {
    std::uint64_t retransmits = 0;
    std::uint64_t hard_stalls = 0;
    double fault_wait_s = 0.0;
  };
  std::vector<Counters> counters(cells.size());
  for (const pipeline::ScenarioRecord& record : study.scenarios()) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].label == record.label) {
        counters[i] = {record.fault_counts.retransmits,
                       record.fault_counts.hard_stalls,
                       record.fault_wait_s};
      }
    }
  }

  const std::size_t num_scenarios = std::size(scenarios);
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const double t_orig = times[i];
    const double t_real = times[i + 1];
    const double speedup = t_real > 0.0 ? t_orig / t_real : 0.0;
    const Cell& cell = cells[i];
    const Counters& c = counters[i + 1];  // overlapped-real run's counters
    table.add_row({selected[cell.app]->name(),
                   scenarios[cell.scenario % num_scenarios].label,
                   format_seconds(t_orig), format_seconds(t_real),
                   strprintf("%.4f", speedup),
                   std::to_string(c.retransmits),
                   std::to_string(c.hard_stalls)});
    csv.add_row({selected[cell.app]->name(),
                 scenarios[cell.scenario % num_scenarios].label,
                 strprintf("%.9g", t_orig), strprintf("%.9g", t_real),
                 strprintf("%.6f", speedup), std::to_string(c.retransmits),
                 std::to_string(c.hard_stalls),
                 strprintf("%.9g", c.fault_wait_s)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("robustness_overlap.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
