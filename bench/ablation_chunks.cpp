// Ablation: chunk-count sweep (the paper fixes 4 chunks per message, §IV).
// More chunks = finer overlap granularity but more per-message transfers.
//
// Tracing is serial; the (app, chunk-count) cells then run concurrently on
// the --jobs study. The non-overlapped replay is identical across chunk
// counts, so the study's cache replays it once per application.
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
  if (!setup.parse("ablation: chunks-per-message sweep", argc, argv)) {
    return 0;
  }

  const int chunk_counts[] = {1, 2, 4, 8, 16};
  const std::size_t num_chunk_counts = std::size(chunk_counts);
  std::vector<std::string> header{"app"};
  for (const int c : chunk_counts) {
    header.push_back(strprintf("%d chunk%s", c, c == 1 ? "" : "s"));
  }
  TextTable table(header);
  table.set_title(
      "speedup (measured patterns) vs non-overlapped, by chunk count");
  TextTable table_ideal(header);
  table_ideal.set_title(
      "speedup (ideal patterns) vs non-overlapped, by chunk count");
  CsvWriter csv(setup.out_path("ablation_chunks.csv"),
                {"app", "chunks", "speedup_real", "speedup_ideal"});

  struct Cell {
    const apps::MiniApp* app;
    const trace::AnnotatedTrace* annotated;
    int chunks;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<tracer::TracedRun> traced;
  traced.reserve(selected.size());
  std::vector<Cell> cells;
  for (const apps::MiniApp* app : selected) {
    traced.push_back(bench::trace(setup, *app));
    for (const int chunks : chunk_counts) {
      cells.push_back({app, &traced.back().annotated, chunks});
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::OverlapOutcome> outcomes =
      study.map(cells, [&study, &setup](const Cell& c) {
        overlap::OverlapOptions options = setup.overlap_options();
        options.chunks = c.chunks;
        return analysis::evaluate_overlap(study, *c.annotated,
                                          setup.platform_for(*c.app), options);
      });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    std::vector<std::string> row{selected[i]->name()};
    std::vector<std::string> row_ideal{selected[i]->name()};
    for (std::size_t j = 0; j < num_chunk_counts; ++j) {
      const analysis::OverlapOutcome& outcome =
          outcomes[i * num_chunk_counts + j];
      row.push_back(cell(outcome.speedup_real(), 4));
      row_ideal.push_back(cell(outcome.speedup_ideal(), 4));
      csv.add_row({selected[i]->name(), std::to_string(chunk_counts[j]),
                   cell(outcome.speedup_real(), 6),
                   cell(outcome.speedup_ideal(), 6)});
    }
    table.add_row(row);
    table_ideal.add_row(row_ideal);
  }
  std::printf("%s\n%s\n", table.render().c_str(),
              table_ideal.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("ablation_chunks.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
