// Table I reproduction: the number of Dimemas buses per application,
// calibrated so the bus-model simulation matches the "real machine"
// (our detailed fair-share reference platform — see DESIGN.md).
//
// Paper values: Sweep3D 12, POP 12, Alya 11, SPECFEM3D 8, BT 22, CG 6.
// The absolute counts depend on the real machine's congestion profile; the
// reproduction's check is that a finite, per-application bus count exists
// that matches the reference closely (small relative error).
//
// Tracing is serial; the per-application calibration sweeps then run
// concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "analysis/calibrate.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "overlap/transform.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  if (!setup.parse("Table I: Dimemas bus counts calibrated per application",
                   argc, argv)) {
    return 0;
  }

  TextTable table({"app", "buses (calibrated)", "buses (paper)",
                   "T reference", "T bus model", "rel. error"});
  table.set_title("Table I: number of network buses used in Dimemas");
  CsvWriter csv(setup.out_path("table1_buses.csv"),
                {"app", "buses", "paper_buses", "t_reference_s",
                 "t_bus_model_s", "relative_error"});

  struct Calibration {
    pipeline::ReplayContext bus_context;
    dimemas::Platform reference;
  };
  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<Calibration> tasks;
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const std::int32_t ranks = setup.app_config(*app).ranks;
    tasks.push_back(
        {pipeline::ReplayContext(overlap::lower_original(traced.annotated),
                                 dimemas::Platform::marenostrum(ranks, 1)),
         dimemas::Platform::reference_machine(ranks)});
  }

  pipeline::Study study(setup.study_options());
  const std::vector<analysis::BusCalibration> calibrations =
      study.map(tasks, [&study](const Calibration& c) {
        return analysis::calibrate_buses(study, c.bus_context, c.reference);
      });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const analysis::BusCalibration& calibration = calibrations[i];
    table.add_row({selected[i]->name(), std::to_string(calibration.buses),
                   std::to_string(selected[i]->paper_buses()),
                   format_seconds(calibration.reference_time),
                   format_seconds(calibration.simulated_time),
                   cell_percent(calibration.relative_error)});
    csv.add_row({selected[i]->name(), std::to_string(calibration.buses),
                 std::to_string(selected[i]->paper_buses()),
                 cell(calibration.reference_time, 6),
                 cell(calibration.simulated_time, 6),
                 cell(calibration.relative_error, 4)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("table1_buses.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
