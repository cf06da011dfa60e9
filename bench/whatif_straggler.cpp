// Straggler study: one node runs slower than the rest (heterogeneous
// platform). Does overlap mask or amplify the imbalance? Reports the
// slowdown each variant suffers relative to its own homogeneous baseline.
//
// Tracing is serial; the four replays per application (original/overlapped
// x homogeneous/straggler) then run concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  double straggler_speed = 0.8;  // the slow node runs at 80%
  Flags flags("what-if: one straggler node at reduced CPU speed");
  flags.add("straggler-speed", &straggler_speed,
            "CPU speed multiplier of the slow node");
  if (!setup.parse("", argc, argv, &flags)) return 0;

  TextTable table({"app", "variant", "T homogeneous", "T straggler",
                   "slowdown"});
  table.set_title(strprintf(
      "impact of one node at %.0f%% CPU speed", straggler_speed * 100));
  CsvWriter csv(setup.out_path("whatif_straggler.csv"),
                {"app", "variant", "t_homogeneous_s", "t_straggler_s",
                 "slowdown"});

  const char* variant_names[] = {"original", "overlapped"};
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<pipeline::ReplayContext> contexts;  // 4 per app
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const dimemas::Platform base = setup.platform_for(*app);
    dimemas::Platform straggler = base;
    straggler.per_node_cpu_speed.assign(
        static_cast<std::size_t>(base.num_nodes), 1.0);
    straggler.per_node_cpu_speed[static_cast<std::size_t>(
        base.num_nodes / 2)] = straggler_speed;

    const bench::AppScenarios sc = bench::scenarios(setup, *app, traced);
    for (const pipeline::ReplayContext& variant : {sc.original, sc.real}) {
      contexts.push_back(variant);  // homogeneous baseline
      contexts.push_back(variant.with_platform(straggler));
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(
      contexts,
      [&study](const pipeline::ReplayContext& c) { return study.makespan(c); });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    for (std::size_t v = 0; v < 2; ++v) {
      const double t_base = times[i * 4 + v * 2];
      const double t_slow = times[i * 4 + v * 2 + 1];
      table.add_row({selected[i]->name(), variant_names[v],
                     format_seconds(t_base), format_seconds(t_slow),
                     cell(t_slow / t_base, 4)});
      csv.add_row({selected[i]->name(), variant_names[v], cell(t_base, 6),
                   cell(t_slow, 6), cell(t_slow / t_base, 6)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("whatif_straggler.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
