// Figure 6(c) reproduction: the overlap's equivalent in increased network
// bandwidth — the bandwidth the *non-overlapped* execution needs to match
// the *overlapped* execution at the nominal 250 MB/s.
//
// Paper: "for some applications the performance of the overlapped execution
// cannot be achieved with non-overlapped execution on any bandwidth"
// (Sweep3D: the equivalent bandwidth tends to infinity, for both real and
// ideal patterns); SPECFEM3D's overlap is worth almost a 4x bandwidth
// increase despite its tiny direct speedup.
//
// Both the per-app traces and the two bisection searches per application
// run concurrently on the --jobs study with shared cached probes.
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
  if (!setup.parse(
          "Figure 6(c): bandwidth equivalent of overlap for the "
          "non-overlapped execution",
          argc, argv)) {
    return 0;
  }

  TextTable table({"app", "equivalent BW real (MB/s)",
                   "equivalent BW ideal (MB/s)", "nominal (MB/s)"});
  table.set_title(
      "Figure 6(c): bandwidth required by the non-overlapped execution to "
      "match the overlapped execution at nominal bandwidth (inf = "
      "unreachable)");
  CsvWriter csv(setup.out_path("fig6c_equivalent.csv"),
                {"app", "equivalent_real_MBps", "equivalent_ideal_MBps",
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

  const std::vector<std::optional<double>> equivalent =
      study.map(searches, [&study](const Search& s) {
        return analysis::equivalent_bandwidth(study, s.original, s.overlapped);
      });

  auto show = [](const std::optional<double>& bw) {
    return bw ? cell(*bw, 4) : std::string("inf");
  };
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const double nominal = searches[2 * i].original.platform().bandwidth_MBps;
    table.add_row({selected[i]->name(), show(equivalent[2 * i]),
                   show(equivalent[2 * i + 1]), cell(nominal, 4)});
    csv.add_row({selected[i]->name(), show(equivalent[2 * i]),
                 show(equivalent[2 * i + 1]), cell(nominal, 4)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("fig6c_equivalent.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
