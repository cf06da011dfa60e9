// Ablation: eager/rendezvous threshold sweep. Advancing sends can only
// land data early if the protocol lets the transfer progress before the
// receive is posted (eager), so the threshold directly modulates how much
// the overlapped execution gains.
//
// Tracing is serial; the (app, threshold) cells then run concurrently on
// the --jobs study.
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
  setup.iterations = 5;
  if (!setup.parse("ablation: eager-threshold sweep", argc, argv)) {
    return 0;
  }

  const std::uint64_t thresholds[] = {0, 1024, 16 * 1024, 64 * 1024,
                                      1u << 30};
  const std::size_t num_thresholds = std::size(thresholds);
  std::vector<std::string> header{"app"};
  for (const std::uint64_t t : thresholds) {
    header.push_back(t >= (1u << 30) ? "always eager"
                                     : format_bytes(static_cast<double>(t)));
  }
  TextTable table(header);
  table.set_title(
      "speedup (measured patterns) vs non-overlapped, by eager threshold");
  CsvWriter csv(setup.out_path("ablation_protocol.csv"),
                {"app", "eager_threshold_bytes", "speedup_real",
                 "t_original_s", "t_overlapped_s"});

  struct Cell {
    const apps::MiniApp* app;
    const trace::AnnotatedTrace* annotated;
    std::uint64_t threshold;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<tracer::TracedRun> traced;
  traced.reserve(selected.size());
  std::vector<Cell> cells;
  for (const apps::MiniApp* app : selected) {
    traced.push_back(bench::trace(setup, *app));
    for (const std::uint64_t threshold : thresholds) {
      cells.push_back({app, &traced.back().annotated, threshold});
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::OverlapOutcome> outcomes =
      study.map(cells, [&study, &setup](const Cell& c) {
        dimemas::Platform platform = setup.platform_for(*c.app);
        platform.eager_threshold_bytes = c.threshold;
        return analysis::evaluate_overlap(study, *c.annotated, platform,
                                          setup.overlap_options());
      });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    std::vector<std::string> row{selected[i]->name()};
    for (std::size_t j = 0; j < num_thresholds; ++j) {
      const analysis::OverlapOutcome& outcome =
          outcomes[i * num_thresholds + j];
      row.push_back(cell(outcome.speedup_real(), 4));
      csv.add_row({selected[i]->name(), std::to_string(thresholds[j]),
                   cell(outcome.speedup_real(), 6),
                   cell(outcome.t_original, 6),
                   cell(outcome.t_overlapped_real, 6)});
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("ablation_protocol.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
