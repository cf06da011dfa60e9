// Figure 6(a) reproduction: speedup of the overlapped execution over the
// non-overlapped execution, for the measured ("real") and ideal
// production/consumption patterns, on the Marenostrum-like test bed
// (250 MB/s, Table I bus counts, 4 chunks per message).
//
// Expected shape (paper): real patterns give small speedups with NAS-CG the
// clear winner; ideal patterns give decent speedups with Sweep3D the
// highest (wavefront pipelining).
//
// Tracing is serial; the three replays per application then run
// concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "analysis/speedup.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  if (!setup.parse("Figure 6(a): overlapped-execution speedup", argc, argv)) {
    return 0;
  }

  TextTable table({"app", "T original", "T overlap real", "T overlap ideal",
                   "speedup real", "speedup ideal"});
  table.set_title("Figure 6(a): speedup of overlapped execution");
  CsvWriter csv(setup.out_path("fig6a_speedup.csv"),
                {"app", "t_original_s", "t_real_s", "t_ideal_s",
                 "speedup_real", "speedup_ideal"});

  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<pipeline::ReplayContext> contexts;
  std::vector<std::string> labels;
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const bench::AppScenarios sc = bench::scenarios(setup, *app, traced);
    contexts.push_back(sc.original);
    contexts.push_back(sc.real);
    contexts.push_back(sc.ideal);
    labels.push_back(app->name() + "/original");
    labels.push_back(app->name() + "/real");
    labels.push_back(app->name() + "/ideal");
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(
      contexts, [&](const pipeline::ReplayContext& c) {
        const auto i = static_cast<std::size_t>(&c - contexts.data());
        return study.makespan(c, labels[i]);
      });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    analysis::OverlapOutcome outcome;
    outcome.t_original = times[3 * i];
    outcome.t_overlapped_real = times[3 * i + 1];
    outcome.t_overlapped_ideal = times[3 * i + 2];
    table.add_row({selected[i]->name(), format_seconds(outcome.t_original),
                   format_seconds(outcome.t_overlapped_real),
                   format_seconds(outcome.t_overlapped_ideal),
                   cell(outcome.speedup_real(), 4),
                   cell(outcome.speedup_ideal(), 4)});
    csv.add_row({selected[i]->name(), cell(outcome.t_original, 6),
                 cell(outcome.t_overlapped_real, 6),
                 cell(outcome.t_overlapped_ideal, 6),
                 cell(outcome.speedup_real(), 6),
                 cell(outcome.speedup_ideal(), 6)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("fig6a_speedup.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
