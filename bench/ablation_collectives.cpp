// Ablation: collective decomposition algorithm (binomial trees, flat
// linear stars, log-round recursive doubling). The paper performs
// collectives "as usual using multiple point-to-point MPI transfers"; this
// bench quantifies how much the chosen decomposition matters per
// application — most visibly for Alya, whose runtime is dominated by
// one-element reductions.
//
// Tracing is serial; the three replays per application (one per algorithm,
// sharing the lowered trace) then run concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "overlap/transform.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse("ablation: collective decomposition algorithms", argc,
                   argv)) {
    return 0;
  }

  const dimemas::CollectiveAlgo algos[] = {
      dimemas::CollectiveAlgo::kBinomialTree,
      dimemas::CollectiveAlgo::kLinear,
      dimemas::CollectiveAlgo::kRecursiveDoubling,
  };
  const std::size_t num_algos = std::size(algos);

  std::vector<std::string> header{"app"};
  for (const auto algo : algos) {
    header.push_back(dimemas::collective_algo_name(algo));
  }
  TextTable table(header);
  table.set_title(
      "original-execution makespan by collective decomposition algorithm");
  CsvWriter csv(setup.out_path("ablation_collectives.csv"),
                {"app", "algorithm", "t_original_s"});

  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<pipeline::ReplayContext> contexts;
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const pipeline::ReplayContext base(
        overlap::lower_original(traced.annotated), setup.platform_for(*app));
    for (const auto algo : algos) {
      dimemas::ReplayOptions options;
      options.collective_algo = algo;
      contexts.push_back(base.with_options(options));  // shares the trace
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(
      contexts,
      [&study](const pipeline::ReplayContext& c) { return study.makespan(c); });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    std::vector<std::string> row{selected[i]->name()};
    for (std::size_t j = 0; j < num_algos; ++j) {
      const double t = times[i * num_algos + j];
      row.push_back(format_seconds(t));
      csv.add_row({selected[i]->name(), dimemas::collective_algo_name(algos[j]),
                   cell(t, 6)});
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("ablation_collectives.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
