// Ablation: the four overlap mechanisms toggled independently, per
// application (DESIGN.md §5.3). Quantifies how much of the overlapped
// execution's behaviour each mechanism is responsible for.
//
// Tracing is serial; the six replays per application (original + five
// variants) then run concurrently on the --jobs study.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 5;
  if (!setup.parse("ablation: overlap mechanisms toggled independently",
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
  const std::size_t num_variants = std::size(variants);
  const std::size_t per_app = 1 + num_variants;  // original + variants

  std::vector<std::string> header{"app", "original"};
  for (const Variant& v : variants) header.push_back(v.name);
  TextTable table(header);
  table.set_title("speedup vs the non-overlapped execution, per mechanism");
  CsvWriter csv(setup.out_path("ablation_mechanisms.csv"),
                {"app", "variant", "time_s", "speedup"});

  const std::vector<const apps::MiniApp*> selected = setup.selected_apps();
  std::vector<pipeline::ReplayContext> contexts;
  for (const apps::MiniApp* app : selected) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const dimemas::Platform platform = setup.platform_for(*app);
    contexts.push_back(pipeline::make_context(
        traced.annotated, pipeline::TraceVariant::kOriginal,
        setup.overlap_options(), platform));
    for (const Variant& variant : variants) {
      overlap::OverlapOptions options = setup.overlap_options();
      options.advance_sends = variant.advance;
      options.postpone_receptions = variant.postpone;
      options.chunking = variant.chunking;
      options.double_buffering = variant.double_buffering;
      contexts.push_back(pipeline::make_context(
          traced.annotated, pipeline::TraceVariant::kOverlapMeasured, options,
          platform));
    }
  }

  pipeline::Study study(setup.study_options());
  const std::vector<double> times = study.map(
      contexts,
      [&study](const pipeline::ReplayContext& c) { return study.makespan(c); });

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const double t_original = times[i * per_app];
    std::vector<std::string> row{selected[i]->name(),
                                 format_seconds(t_original)};
    csv.add_row({selected[i]->name(), "original", cell(t_original, 6), "1"});
    for (std::size_t j = 0; j < num_variants; ++j) {
      const double t = times[i * per_app + 1 + j];
      row.push_back(cell(t_original / t, 4));
      csv.add_row({selected[i]->name(), variants[j].name, cell(t, 6),
                   cell(t_original / t, 6)});
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("ablation_mechanisms.csv").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
