// Critical-path composition per application, original vs overlapped: how
// much of the path the overlap mechanisms remove. The quantitative form of
// the paper's Figure 4 reading ("the performance improvement is mostly
// attributed to advancing the MPI transfer").
//
// Tracing is serial; the (app, variant) replays then run concurrently on
// the --jobs study. Timeline-recording replays are uncached
// (pipeline::run_scenario), since the cache only stores makespans.
#include <cstdio>
#include <vector>

#include "analysis/critical_path.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse("critical-path composition, original vs overlapped", argc,
                   argv)) {
    return 0;
  }

  TextTable table({"app", "variant", "makespan", "path compute",
                   "path communication", "comm share", "ranks on path"});
  table.set_title("critical-path composition");
  CsvWriter csv(setup.out_path("critpath_analysis.csv"),
                {"app", "variant", "makespan_s", "compute_s",
                 "communication_s", "comm_share", "ranks_on_path"});

  const char* variant_names[] = {"original", "overlapped"};
  dimemas::ReplayOptions replay_options;
  replay_options.record_timeline = true;

  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<pipeline::ReplayContext> contexts;  // 2 per app
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const dimemas::Platform platform = setup.platform_for(*app);
    contexts.push_back(pipeline::make_context(
        traced.annotated, pipeline::TraceVariant::kOriginal,
        setup.overlap_options(), platform, replay_options));
    contexts.push_back(pipeline::make_context(
        traced.annotated, pipeline::TraceVariant::kOverlapMeasured,
        setup.overlap_options(), platform, replay_options));
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::CriticalPath> paths =
      study.map(contexts, [](const pipeline::ReplayContext& c) {
        return analysis::critical_path(pipeline::run_scenario(c));
      });

  for (std::size_t i = 0; i < contexts.size(); ++i) {
    const apps::MiniApp* app = selected[i / 2];
    const analysis::CriticalPath& path = paths[i];
    table.add_row({app->name(), variant_names[i % 2],
                   format_seconds(path.makespan),
                   format_seconds(path.compute_s),
                   format_seconds(path.communication_s),
                   cell_percent(path.communication_share(), 1),
                   std::to_string(path.ranks_visited())});
    csv.add_row({app->name(), variant_names[i % 2], cell(path.makespan, 6),
                 cell(path.compute_s, 6), cell(path.communication_s, 6),
                 cell(path.communication_share(), 4),
                 std::to_string(path.ranks_visited())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("critpath_analysis.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
