// End-to-end pipeline tests: trace an application on the instrumented
// runtime, lower to original/overlapped traces, replay on the platform
// models, and check the paper-level properties hold — per application and
// across the mechanism toggles.
#include <gtest/gtest.h>

#include "analysis/bandwidth.hpp"
#include "analysis/calibrate.hpp"
#include "analysis/speedup.hpp"
#include "apps/app.hpp"
#include "common/expect.hpp"
#include "dimemas/replay.hpp"
#include "lint/lint.hpp"
#include "overlap/transform.hpp"
#include "paraver/paraver.hpp"
#include "pipeline/context.hpp"
#include "pipeline/study.hpp"
#include "trace/io.hpp"

namespace osim {
namespace {

apps::AppConfig config_for(const apps::MiniApp& app) {
  apps::AppConfig config;
  config.ranks = 4;
  while (!app.supports_ranks(config.ranks)) ++config.ranks;
  config.iterations = 3;
  return config;
}

class PipelinePerApp : public ::testing::TestWithParam<const apps::MiniApp*> {
};

TEST_P(PipelinePerApp, FullPipelineRuns) {
  const apps::MiniApp& app = *GetParam();
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);

  const trace::Trace original = overlap::lower_original(traced.annotated);
  EXPECT_EQ(lint::check_structure(original).num_errors(), 0u);

  overlap::OverlapOptions options;
  const trace::Trace overlapped =
      overlap::transform(traced.annotated, options);
  EXPECT_EQ(lint::check_structure(overlapped).num_errors(), 0u);

  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  const double t_original = dimemas::replay(original, platform).makespan;
  const double t_overlapped = dimemas::replay(overlapped, platform).makespan;
  EXPECT_GT(t_original, 0.0);
  EXPECT_GT(t_overlapped, 0.0);
  // Overlap never catastrophically hurts (paper: small speedups or ~1.0;
  // our worst case is POP's collective-skew amplification at ~0.93).
  EXPECT_GT(t_original / t_overlapped, 0.85);
}

TEST_P(PipelinePerApp, IdealAtLeastAsGoodAsMeasured) {
  // The ideal production/consumption pattern is the best case by
  // construction; it must never lose to the measured pattern by more than
  // scheduling noise.
  const apps::MiniApp& app = *GetParam();
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  pipeline::Study study;
  const auto outcome =
      analysis::evaluate_overlap(study, traced.annotated, platform);
  EXPECT_GE(outcome.speedup_ideal(), outcome.speedup_real() * 0.97);
}

TEST_P(PipelinePerApp, TraceFileRoundTripReplaysIdentically) {
  // The pipeline can be split across processes via trace files: writing
  // and re-reading the trace must not change the replayed behaviour.
  const apps::MiniApp& app = *GetParam();
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const trace::Trace original = overlap::lower_original(traced.annotated);
  const trace::Trace reparsed =
      trace::read_text(trace::write_text(original));
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  EXPECT_DOUBLE_EQ(dimemas::replay(original, platform).makespan,
                   dimemas::replay(reparsed, platform).makespan);
}

TEST_P(PipelinePerApp, ReplaysOnReferenceMachineToo) {
  const apps::MiniApp& app = *GetParam();
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const trace::Trace original = overlap::lower_original(traced.annotated);
  const dimemas::Platform reference =
      dimemas::Platform::reference_machine(config.ranks);
  EXPECT_GT(dimemas::replay(original, reference).makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, PipelinePerApp, ::testing::ValuesIn(apps::registry()),
    [](const ::testing::TestParamInfo<const apps::MiniApp*>& info) {
      return info.param->name();
    });

// --- mechanism ablations ---------------------------------------------------------

TEST(Mechanisms, TogglesProduceValidTraces) {
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  for (const bool advance : {false, true}) {
    for (const bool postpone : {false, true}) {
      for (const bool chunking : {false, true}) {
        for (const bool double_buffering : {false, true}) {
          overlap::OverlapOptions options;
          options.advance_sends = advance;
          options.postpone_receptions = postpone;
          options.chunking = chunking;
          options.double_buffering = double_buffering;
          const trace::Trace t =
              overlap::transform(traced.annotated, options);
          EXPECT_EQ(lint::check_structure(t).num_errors(), 0u)
              << advance << postpone << chunking << double_buffering;
          const dimemas::Platform platform = dimemas::Platform::marenostrum(
              config.ranks, app.paper_buses());
          EXPECT_GT(dimemas::replay(t, platform).makespan, 0.0);
        }
      }
    }
  }
}

TEST(Mechanisms, AdvancingSendsIsTheKeyForCg) {
  // The paper reads from Figure 4 that NAS-CG's gain comes mostly from
  // advancing the sends; disabling it must cost most of the speedup.
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  const trace::Trace original = overlap::lower_original(traced.annotated);
  const double t_original = dimemas::replay(original, platform).makespan;

  overlap::OverlapOptions with;
  overlap::OverlapOptions without;
  without.advance_sends = false;
  const double t_with =
      dimemas::replay(overlap::transform(traced.annotated, with), platform)
          .makespan;
  const double t_without =
      dimemas::replay(overlap::transform(traced.annotated, without),
                      platform)
          .makespan;
  EXPECT_LT(t_with, t_original);          // full mechanism helps
  EXPECT_GT(t_without, t_with * 0.999);   // dropping advance never helps
}

// --- figure-level properties ----------------------------------------------------

TEST(PaperProperties, CgGainsFromRealPatterns) {
  // "the real patterns allow speedup only in the case of NAS-CG"
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  apps::AppConfig config;
  config.ranks = 4;
  config.iterations = 5;
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  pipeline::Study study;
  const auto outcome =
      analysis::evaluate_overlap(study, traced.annotated, platform);
  EXPECT_GT(outcome.speedup_real(), 1.05);
}

TEST(PaperProperties, SweepBenefitsMostFromIdealPatterns) {
  // "The highest speedup is reached for Sweep3D due to the wavefront
  // behavior of the application."
  apps::AppConfig config;
  config.ranks = 4;
  config.iterations = 2;
  double sweep_ideal = 0.0;
  double others_best = 0.0;
  pipeline::Study study;
  for (const apps::MiniApp* app : apps::registry()) {
    apps::AppConfig c = config;
    while (!app->supports_ranks(c.ranks)) ++c.ranks;
    const tracer::TracedRun traced = apps::trace_app(*app, c);
    const dimemas::Platform platform =
        dimemas::Platform::marenostrum(c.ranks, app->paper_buses());
    const auto outcome =
        analysis::evaluate_overlap(study, traced.annotated, platform);
    if (app->name() == "sweep3d") {
      sweep_ideal = outcome.speedup_ideal();
    } else {
      others_best = std::max(others_best, outcome.speedup_ideal());
    }
  }
  EXPECT_GT(sweep_ideal, others_best);
}

TEST(PaperProperties, AlyaUnaffectedByOverlap) {
  // One-element reductions cannot be chunked: the overlapped trace equals
  // the original in replay time.
  const apps::MiniApp& app = *apps::find_app("alya");
  const apps::AppConfig config = config_for(app);
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  pipeline::Study study;
  const auto outcome =
      analysis::evaluate_overlap(study, traced.annotated, platform);
  EXPECT_NEAR(outcome.speedup_real(), 1.0, 1e-6);
  EXPECT_NEAR(outcome.speedup_ideal(), 1.0, 1e-6);
}

TEST(PaperProperties, BandwidthRelaxationForCg) {
  // Figure 6(b): the overlapped execution needs much less bandwidth to
  // match the original at nominal bandwidth.
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  apps::AppConfig config;
  config.ranks = 4;
  config.iterations = 4;
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const trace::Trace original = overlap::lower_original(traced.annotated);
  const trace::Trace overlapped =
      overlap::transform(traced.annotated, {});
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  pipeline::Study study;
  const auto relaxed = analysis::relaxed_bandwidth(
      study, pipeline::ReplayContext(original, platform),
      pipeline::ReplayContext(overlapped, platform));
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_LT(*relaxed, platform.bandwidth_MBps * 0.7);
}

TEST(PaperProperties, Fig4TimelineRenderable) {
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  apps::AppConfig config;
  config.ranks = 4;
  config.iterations = 5;
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  dimemas::ReplayOptions options;
  options.record_timeline = true;
  options.record_comms = true;
  const auto run_original = dimemas::replay(
      overlap::lower_original(traced.annotated), platform, options);
  const auto run_overlapped = dimemas::replay(
      overlap::transform(traced.annotated, {}), platform, options);
  const std::string figure = paraver::render_comparison(
      run_original, "non-overlapped", run_overlapped, "overlapped");
  EXPECT_NE(figure.find("non-overlapped"), std::string::npos);
  // The "longer synchronization lines" observation: advanced sends raise
  // the mean send-call-to-completion lead time.
  const auto comm_orig = paraver::summarize_comms(run_original);
  const auto comm_ovlp = paraver::summarize_comms(run_overlapped);
  EXPECT_GT(comm_ovlp.mean_send_lead_s, comm_orig.mean_send_lead_s);
}

TEST(PaperProperties, BusCalibrationConvergesForCg) {
  const apps::MiniApp& app = *apps::find_app("nas_cg");
  apps::AppConfig config;
  config.ranks = 8;
  config.iterations = 3;
  const tracer::TracedRun traced = apps::trace_app(app, config);
  const trace::Trace original = overlap::lower_original(traced.annotated);
  pipeline::Study study;
  const auto calibration = analysis::calibrate_buses(
      study,
      pipeline::ReplayContext(
          original, dimemas::Platform::marenostrum(config.ranks, 1)),
      dimemas::Platform::reference_machine(config.ranks));
  EXPECT_GE(calibration.buses, 1);
  EXPECT_LT(calibration.relative_error, 0.25);
}

}  // namespace
}  // namespace osim
