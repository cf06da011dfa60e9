// Figure 5 reproduction: production/consumption pattern scatter plots.
//
//   (a) Sweep3D production — every element revisited many times, final
//       versions only late in the interval;
//   (b) NAS-BT consumption — four tight unpack passes ("the data is copied
//       to some other location");
//   (c) POP consumption — a leading band of independent work, then the
//       whole halo consumed at once.
//
// x axis: normalized time within the production/consumption interval;
// y axis: element offset within the transferred buffer (as in the paper's
// "Figure interpretation" note).
#include <cstdio>

#include "analysis/patterns.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace {

struct Panel {
  const char* app;
  bool production;
  const char* title;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.iterations = 4;
  if (!setup.parse("Figure 5: production/consumption access scatter", argc,
                   argv)) {
    return 0;
  }

  const Panel panels[] = {
      {"sweep3d", true, "Figure 5(a): SWEEP3D production pattern"},
      {"nas_bt", false, "Figure 5(b): NAS-BT consumption pattern"},
      {"pop", false, "Figure 5(c): POP consumption pattern"},
  };

  CsvWriter csv(setup.out_path("fig5_patterns.csv"),
                {"app", "kind", "time_frac", "element_frac"});

  for (const Panel& panel : panels) {
    const apps::MiniApp* app = apps::find_app(panel.app);
    OSIM_CHECK(app != nullptr);
    const tracer::TracedRun traced =
        bench::trace(setup, *app, /*record_access_log=*/true);

    // Use a middle rank so the buffer sees real traffic in both directions.
    const std::int32_t rank = setup.app_config(*app).ranks / 2;
    const std::int64_t buffer =
        traced.find_buffer(rank, app->pattern_buffer());
    OSIM_CHECK_MSG(buffer >= 0, "pattern buffer not found");

    const auto points =
        panel.production
            ? analysis::production_scatter(
                  traced.annotated,
                  traced.access_logs[static_cast<std::size_t>(rank)], rank,
                  buffer)
            : analysis::consumption_scatter(
                  traced.annotated,
                  traced.access_logs[static_cast<std::size_t>(rank)], rank,
                  buffer);

    std::printf("%s\n",
                analysis::render_scatter(points, panel.title, 72, 18).c_str());
    for (const auto& point : points) {
      csv.add_row({panel.app, panel.production ? "production" : "consumption",
                   cell(point.time_frac, 5), cell(point.element_frac, 5)});
    }
  }

  std::printf("CSV written to %s\n",
              setup.out_path("fig5_patterns.csv").c_str());
  return setup.finish();
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
