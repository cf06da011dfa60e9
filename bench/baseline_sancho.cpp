// Baseline comparison: Sancho et al.'s analytical overlap-potential model
// (the paper's reference [23] and the work it explicitly improves upon)
// against this framework's simulated speedups.
//
// The paper's claim: "our framework accounts for more delicate application
// properties". The table shows both directions of the analytic model's
// error — applications whose unfavourable measured patterns keep them far
// below the analytic bound (POP, SPECFEM3D, BT: the model cannot see
// production/consumption timing), and Sweep3D's ideal-pattern speedup
// exceeding the model's hard ≤2 bound (the model cannot see cross-rank
// pipelining created by chunking).
//
// Tracing and the (cheap) analytic estimates are serial; the three
// simulated replays per application run concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "analysis/sancho.hpp"
#include "analysis/speedup.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse(
          "baseline: Sancho'06 analytic overlap bound vs simulation", argc,
          argv)) {
    return 0;
  }

  TextTable table({"app", "T_comp", "T_comm", "analytic bound",
                   "simulated real", "simulated ideal", "verdict"});
  table.set_title(
      "Sancho'06 analytic speedup bound vs this framework's simulation");
  CsvWriter csv(setup.out_path("baseline_sancho.csv"),
                {"app", "t_comp_s", "t_comm_s", "analytic_bound",
                 "simulated_real", "simulated_ideal"});

  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<analysis::SanchoEstimate> analytics;
  std::vector<pipeline::ReplayContext> contexts;  // 3 per app
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const bench::AppScenarios sc = bench::scenarios(setup, *app, traced);
    analytics.push_back(analysis::sancho_estimate(sc.original));
    contexts.push_back(sc.original);
    contexts.push_back(sc.real);
    contexts.push_back(sc.ideal);
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(
      contexts,
      [&study](const pipeline::ReplayContext& c) { return study.makespan(c); });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const analysis::SanchoEstimate& analytic = analytics[i];
    analysis::OverlapOutcome simulated;
    simulated.t_original = times[3 * i];
    simulated.t_overlapped_real = times[3 * i + 1];
    simulated.t_overlapped_ideal = times[3 * i + 2];

    const char* verdict = "model ~ok";
    if (simulated.speedup_ideal() > analytic.speedup_bound() * 1.05) {
      verdict = "simulation beats the bound (pipelining)";
    } else if (simulated.speedup_real() <
               analytic.speedup_bound() * 0.75) {
      verdict = "model too optimistic (patterns)";
    }
    table.add_row({selected[i]->name(), format_seconds(analytic.t_compute_s),
                   format_seconds(analytic.t_comm_s),
                   cell(analytic.speedup_bound(), 4),
                   cell(simulated.speedup_real(), 4),
                   cell(simulated.speedup_ideal(), 4), verdict});
    csv.add_row({selected[i]->name(), cell(analytic.t_compute_s, 6),
                 cell(analytic.t_comm_s, 6),
                 cell(analytic.speedup_bound(), 6),
                 cell(simulated.speedup_real(), 6),
                 cell(simulated.speedup_ideal(), 6)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("baseline_sancho.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
