// Progress-regime grid: the paper's overlap mechanisms replayed under the
// three MPI progress models (DESIGN.md §3.8). Quantifies how much of each
// mechanism's win survives when rendezvous handshakes and transfer
// completions only advance inside MPI calls (application-driven progress),
// and what a progress thread's CPU tax costs.
//
// Per application: the non-overlapped original plus five mechanism variants
// (all-on + one-mechanism-off ablations), each crossed with the offload /
// application-driven / progress-thread regimes via pipeline::cross_progress.
// Metrics collection is on, so the study report attributes the lost overlap
// to progress_wait_s per scenario.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dimemas/progress.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse("progress regimes: overlap mechanisms under the three "
                   "MPI progress models",
                   argc, argv)) {
    return 0;
  }

  struct Variant {
    const char* name;
    bool advance, postpone, chunking, double_buffering;
  };
  const Variant variants[] = {
      {"all on (paper)", true, true, true, true},
      {"no advancing sends", false, true, true, true},
      {"no postponed receptions", true, false, true, true},
      {"no chunking", true, true, false, true},
      {"no double buffering", true, true, true, false},
  };
  const std::vector<pipeline::ProgressScenario> regimes = {
      {"offload", dimemas::ProgressModel{}},
      {"app-driven", dimemas::parse_progress_spec("app")},
      {"thread", dimemas::parse_progress_spec("thread")},
  };
  const std::size_t num_variants = std::size(variants);
  const std::size_t num_regimes = regimes.size();
  const std::size_t per_app = (1 + num_variants) * num_regimes;

  TextTable table({"app", "variant", "offload", "app-driven", "thread"});
  table.set_title(
      "speedup vs the non-overlapped run, per MPI progress model");
  CsvWriter csv(setup.out_path("progress_regimes.csv"),
                {"app", "variant", "regime", "time_s", "speedup"});

  struct Cell {
    pipeline::ReplayContext context;
    std::string label;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<Cell> cells;
  cells.reserve(selected.size() * per_app);
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const dimemas::Platform platform = setup.platform_for(*app);
    dimemas::ReplayOptions replay = setup.replay_options();
    replay.collect_metrics = true;  // wait attribution → progress_wait_s
    auto push = [&](const pipeline::ReplayContext& base,
                    const std::string& variant_name) {
      std::vector<pipeline::ReplayContext> crossed =
          pipeline::cross_progress(base, regimes);
      for (std::size_t r = 0; r < crossed.size(); ++r) {
        cells.push_back(Cell{std::move(crossed[r]),
                             app->name() + "/" + variant_name + "/" +
                                 regimes[r].label});
      }
    };
    push(pipeline::make_context(traced.annotated,
                                pipeline::TraceVariant::kOriginal,
                                setup.overlap_options(), platform, replay),
         "original");
    for (const Variant& variant : variants) {
      overlap::OverlapOptions options = setup.overlap_options();
      options.advance_sends = variant.advance;
      options.postpone_receptions = variant.postpone;
      options.chunking = variant.chunking;
      options.double_buffering = variant.double_buffering;
      push(pipeline::make_context(traced.annotated,
                                  pipeline::TraceVariant::kOverlapMeasured,
                                  options, platform, replay),
           variant.name);
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(cells, [&study](const Cell& c) {
    return study.makespan(c.context, c.label);
  });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::size_t base = i * per_app;
    for (std::size_t r = 0; r < num_regimes; ++r) {
      csv.add_row({selected[i]->name(), "original", regimes[r].label,
                   cell(times[base + r], 6), "1"});
    }
    for (std::size_t j = 0; j < num_variants; ++j) {
      std::vector<std::string> row{selected[i]->name(), variants[j].name};
      for (std::size_t r = 0; r < num_regimes; ++r) {
        const double t_original = times[base + r];
        const double t = times[base + (1 + j) * num_regimes + r];
        row.push_back(cell(t_original / t, 4));
        csv.add_row({selected[i]->name(), variants[j].name, regimes[r].label,
                     cell(t, 6), cell(t_original / t, 6)});
      }
      table.add_row(row);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("progress_regimes.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
