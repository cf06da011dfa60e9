// Figure 4 reproduction: Paraver visualization of the non-overlapped and
// overlapped executions of NAS-CG (4 processes, 5 iterations) on the
// test-bed platform.
//
// The paper reads from this figure: (1) the overlapped execution achieves
// ~8% improvement, and (2) the improvement is "mostly attributed to
// advancing the MPI transfers ... visible as longer synchronization lines".
// We print both ASCII timelines, write real Paraver .prv/.pcf/.row bundles,
// and quantify the synchronization-line observation via the mean
// send-to-completion lead time.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "paraver/paraver.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  setup.ranks = 4;       // the paper's Figure 4 setup
  setup.iterations = 5;
  if (!setup.parse("Figure 4: non-overlapped vs overlapped NAS-CG timelines",
                   argc, argv)) {
    return 0;
  }

  const apps::MiniApp* app = apps::find_app("nas_cg");
  const tracer::TracedRun traced = bench::trace(setup, *app);
  const dimemas::Platform platform = setup.platform_for(*app);
  dimemas::ReplayOptions options;
  options.record_timeline = true;
  options.record_comms = true;

  const std::vector<pipeline::ReplayContext> contexts = {
      pipeline::make_context(traced.annotated,
                             pipeline::TraceVariant::kOriginal,
                             setup.overlap_options(), platform, options),
      pipeline::make_context(traced.annotated,
                             pipeline::TraceVariant::kOverlapMeasured,
                             setup.overlap_options(), platform, options)};
  pipeline::Study study(setup.study_options());
  const std::vector<dimemas::SimResult> runs =
      study.map(contexts, pipeline::run_scenario);
  const dimemas::SimResult& run_original = runs[0];
  const dimemas::SimResult& run_overlapped = runs[1];

  paraver::AsciiOptions ascii;
  ascii.width = 100;
  std::printf("%s\n",
              paraver::render_comparison(run_original, "non-overlapped NAS-CG",
                                         run_overlapped, "overlapped NAS-CG",
                                         ascii)
                  .c_str());

  std::printf("non-overlapped %s\noverlapped %s\n",
              paraver::render_profile(run_original).c_str(),
              paraver::render_profile(run_overlapped).c_str());

  const double improvement =
      1.0 - run_overlapped.makespan / run_original.makespan;
  std::printf("performance improvement: %.1f%% (paper: ~8%%)\n",
              improvement * 100.0);

  const auto comm_orig = paraver::summarize_comms(run_original);
  const auto comm_ovlp = paraver::summarize_comms(run_overlapped);
  std::printf(
      "synchronization lines: mean send-call -> recv-complete lead %s "
      "(non-overlapped, %zu msgs) vs %s (overlapped, %zu msgs)\n",
      format_seconds(comm_orig.mean_send_lead_s).c_str(), comm_orig.messages,
      format_seconds(comm_ovlp.mean_send_lead_s).c_str(),
      comm_ovlp.messages);

  paraver::write_prv_bundle(run_original,
                            setup.out_path("fig4_nas_cg_original"), "nas_cg");
  paraver::write_prv_bundle(run_overlapped,
                            setup.out_path("fig4_nas_cg_overlapped"),
                            "nas_cg");
  std::printf("Paraver bundles written to %s and %s (.prv/.pcf/.row)\n",
              setup.out_path("fig4_nas_cg_original").c_str(),
              setup.out_path("fig4_nas_cg_overlapped").c_str());
  return setup.finish(study);
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
