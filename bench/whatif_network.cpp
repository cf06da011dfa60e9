// What-if network sensitivity per application: how much of each app's
// runtime is attributable to latency, bandwidth and contention — and how
// overlap changes that attribution. This extends the paper's §V network
// studies with a single-table breakdown.
//
// Tracing is serial; the (app, variant) breakdowns — five replays each —
// then run concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "analysis/whatif.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse("what-if: network sensitivity breakdown per application",
                   argc, argv)) {
    return 0;
  }

  TextTable table({"app", "variant", "T nominal", "latency", "bandwidth",
                   "contention", "network total"});
  table.set_title(
      "share of the nominal runtime removed by idealizing each network "
      "property");
  CsvWriter csv(setup.out_path("whatif_network.csv"),
                {"app", "variant", "t_nominal_s", "latency_sensitivity",
                 "bandwidth_sensitivity", "contention_sensitivity",
                 "network_bound_share"});

  struct Variant {
    const char* name;
    pipeline::ReplayContext context;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<Variant> variants;
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const bench::AppScenarios sc = bench::scenarios(setup, *app, traced);
    variants.push_back({"original", sc.original});
    variants.push_back({"overlapped", sc.real});
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::WhatIfBreakdown> breakdowns =
      study.map(variants, [&study](const Variant& v) {
        return analysis::whatif_network(study, v.context);
      });

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const apps::MiniApp* app = selected[i / 2];
    const analysis::WhatIfBreakdown& breakdown = breakdowns[i];
    table.add_row({app->name(), variants[i].name,
                   format_seconds(breakdown.t_nominal),
                   cell_percent(breakdown.latency_sensitivity(), 1),
                   cell_percent(breakdown.bandwidth_sensitivity(), 1),
                   cell_percent(breakdown.contention_sensitivity(), 1),
                   cell_percent(breakdown.network_bound_share(), 1)});
    csv.add_row({app->name(), variants[i].name, cell(breakdown.t_nominal, 6),
                 cell(breakdown.latency_sensitivity(), 4),
                 cell(breakdown.bandwidth_sensitivity(), 4),
                 cell(breakdown.contention_sensitivity(), 4),
                 cell(breakdown.network_bound_share(), 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("whatif_network.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
