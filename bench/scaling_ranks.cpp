// Scaling study: overlap speedup as a function of the rank count (the
// paper's machine was 64 nodes; its motivation — network cost grows with
// scale — implies the benefit should persist or grow as ranks increase).
// Sweep3D's wavefront pipelining is the clearest case: the ideal-pattern
// speedup grows with the process-grid diagonal.
//
// Tracing is serial (and is the expensive phase here: one trace per
// (app, rank-count) cell); the replays then run concurrently on the
// --jobs study.
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
  setup.iterations = 4;
  if (!setup.parse("scaling: overlap speedup vs rank count", argc, argv)) {
    return 0;
  }

  const std::int32_t rank_counts[] = {4, 8, 16, 32, 64};
  const std::size_t num_rank_counts = std::size(rank_counts);
  std::vector<std::string> header{"app", "pattern"};
  for (const std::int32_t r : rank_counts) {
    header.push_back(strprintf("%d ranks", r));
  }
  TextTable table(header);
  table.set_title("overlap speedup vs rank count");
  CsvWriter csv(setup.out_path("scaling_ranks.csv"),
                {"app", "pattern", "ranks", "speedup"});

  struct Cell {
    tracer::TracedRun traced;
    dimemas::Platform platform;
    std::int32_t ranks = 0;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<Cell> cells;
  for (const apps::MiniApp* app : selected) {
    for (const std::int32_t ranks : rank_counts) {
      apps::AppConfig config;
      config.ranks = ranks;
      while (!app->supports_ranks(config.ranks)) ++config.ranks;
      config.iterations = static_cast<std::int32_t>(setup.iterations);
      config.scale = static_cast<std::int32_t>(setup.scale);
      std::fprintf(stderr, "[bench] tracing %s (%d ranks)...\n",
                   app->name().c_str(), config.ranks);
      cells.push_back({apps::trace_app(*app, config),
                       dimemas::Platform::marenostrum(config.ranks,
                                                      app->paper_buses()),
                       config.ranks});
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::OverlapOutcome> outcomes =
      study.map(cells, [&study, &setup](const Cell& c) {
        return analysis::evaluate_overlap(study, c.traced.annotated,
                                          c.platform, setup.overlap_options());
      });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    std::vector<std::string> row_real{selected[i]->name(), "real"};
    std::vector<std::string> row_ideal{selected[i]->name(), "ideal"};
    for (std::size_t j = 0; j < num_rank_counts; ++j) {
      const std::size_t k = i * num_rank_counts + j;
      row_real.push_back(cell(outcomes[k].speedup_real(), 4));
      row_ideal.push_back(cell(outcomes[k].speedup_ideal(), 4));
      csv.add_row({selected[i]->name(), "real", std::to_string(cells[k].ranks),
                   cell(outcomes[k].speedup_real(), 6)});
      csv.add_row({selected[i]->name(), "ideal",
                   std::to_string(cells[k].ranks),
                   cell(outcomes[k].speedup_ideal(), 6)});
    }
    table.add_row(row_real);
    table.add_row(row_ideal);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("scaling_ranks.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
