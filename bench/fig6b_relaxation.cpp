// Figure 6(b) reproduction: bandwidth relaxation — the minimum network
// bandwidth at which the *overlapped* execution still matches the
// performance of the *non-overlapped* execution at the nominal 250 MB/s.
//
// Paper: "the biggest benefit of overlap is that it allows to significantly
// relax network bandwidth without consequently degrading the performance";
// Sweep3D relaxes the most (down to 11.75 MB/s).
//
// Both phases run on the --jobs study: the per-app traces are independent
// deterministic runs, and the bisection searches — two per application —
// share cached probes such as the nominal-bandwidth endpoints.
#include <cstdio>
#include <optional>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  if (!setup.parse("Figure 6(b): bandwidth relaxation under overlap", argc,
                   argv)) {
    return 0;
  }

  TextTable table({"app", "relaxed BW real (MB/s)", "relaxed BW ideal (MB/s)",
                   "nominal (MB/s)"});
  table.set_title(
      "Figure 6(b): bandwidth needed by the overlapped execution to match "
      "the non-overlapped execution at nominal bandwidth");
  CsvWriter csv(setup.out_path("fig6b_relaxation.csv"),
                {"app", "relaxed_real_MBps", "relaxed_ideal_MBps",
                 "nominal_MBps"});

  struct Search {
    pipeline::ReplayContext original;
    pipeline::ReplayContext overlapped;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  pipeline::Study study(setup.study_options());
  const std::vector<tracer::TracedRun> traced =
      bench::trace_all(setup, selected, study);
  std::vector<Search> searches;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const bench::AppScenarios sc =
        bench::scenarios(setup, *selected[i], traced[i]);
    searches.push_back({sc.original, sc.real});
    searches.push_back({sc.original, sc.ideal});
  }

  const std::vector<std::optional<double>> relaxed =
      study.map(searches, [&study](const Search& s) {
        return analysis::relaxed_bandwidth(study, s.original, s.overlapped);
      });

  auto show = [](const std::optional<double>& bw) {
    return bw ? cell(*bw, 4) : std::string("n/a");
  };
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const double nominal = searches[2 * i].original.platform().bandwidth_MBps;
    table.add_row({selected[i]->name(), show(relaxed[2 * i]),
                   show(relaxed[2 * i + 1]), cell(nominal, 4)});
    csv.add_row({selected[i]->name(), show(relaxed[2 * i]),
                 show(relaxed[2 * i + 1]), cell(nominal, 4)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("fig6b_relaxation.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
