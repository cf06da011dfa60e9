// Tests for the MPI progress-engine scenario axis: spec grammar, the
// bit-identity contract when the model is inert (offload), determinism
// across study parallelism and store tiers, regime effects on the golden
// workload, progress-wait attribution in metrics and reports, and the
// pinned golden showing application-driven progress erasing the
// advanced-send overlap win on a bundled mini-app.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/expect.hpp"
#include "dimemas/progress.hpp"
#include "dimemas/replay.hpp"
#include "metrics/attribution.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "trace/trace.hpp"
#include "tracer/tracer.hpp"

namespace osim {
namespace {

/// Fixed 4-rank ring workload — the same construction whose golden
/// fingerprint and makespan were captured before fault injection existed
/// (see faults_test.cpp). 32 KiB messages sit above the 16 KiB eager
/// threshold, so every transfer takes the rendezvous path the progress
/// engine gates.
trace::Trace golden_trace() {
  trace::TraceBuilder b(4, 1000.0, "golden");
  for (int round = 0; round < 3; ++round) {
    for (trace::Rank r = 0; r < 4; ++r) {
      b.compute(r, 50'000 + 1000 * r);
      const auto to = static_cast<trace::Rank>((r + 1) % 4);
      const auto from = static_cast<trace::Rank>((r + 3) % 4);
      const trace::ReqId req = round * 4 + r;
      b.irecv(r, from, round, 32 * 1024, req);
      b.send(r, to, round, 32 * 1024);
      b.wait(r, {req});
    }
  }
  return std::move(b).build();
}

dimemas::Platform golden_platform() {
  dimemas::Platform p;
  p.num_nodes = 4;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  p.num_buses = 2;
  return p;
}

pipeline::ReplayContext progress_context(const std::string& spec,
                                         bool collect_metrics = false) {
  dimemas::ReplayOptions options;
  options.collect_metrics = collect_metrics;
  options.progress = dimemas::parse_progress_spec(spec);
  return pipeline::ReplayContext(golden_trace(), golden_platform(), options);
}

// --- spec grammar -----------------------------------------------------------

TEST(ProgressSpec, RoundTripsCanonicalForm) {
  const char* specs[] = {"offload", "app", "thread", "thread,tax=0.25",
                         "thread, tax=0"};
  for (const char* spec : specs) {
    const dimemas::ProgressModel model = dimemas::parse_progress_spec(spec);
    const std::string canonical = dimemas::to_spec(model);
    // Canonical form is a fixed point: parse(canon(parse(s))) == canon.
    EXPECT_EQ(dimemas::to_spec(dimemas::parse_progress_spec(canonical)),
              canonical)
        << "spec: " << spec;
    EXPECT_TRUE(dimemas::parse_progress_spec(canonical) == model)
        << "spec: " << spec;
  }
}

TEST(ProgressSpec, InertModelHasEmptySpec) {
  EXPECT_EQ(dimemas::to_spec(dimemas::ProgressModel{}), "");
  EXPECT_FALSE(dimemas::ProgressModel{}.enabled());
  EXPECT_FALSE(dimemas::parse_progress_spec("").enabled());
  EXPECT_FALSE(dimemas::parse_progress_spec("offload").enabled());
  EXPECT_TRUE(dimemas::parse_progress_spec("app").enabled());
  EXPECT_TRUE(dimemas::parse_progress_spec("thread").enabled());
}

TEST(ProgressSpec, DefaultThreadTax) {
  EXPECT_DOUBLE_EQ(dimemas::parse_progress_spec("thread").thread_cpu_tax,
                   0.05);
  EXPECT_DOUBLE_EQ(
      dimemas::parse_progress_spec("thread,tax=0.5").thread_cpu_tax, 0.5);
}

TEST(ProgressSpec, MalformedSpecsThrowNamingTheClause) {
  const char* bad[] = {
      "bogus",             // unknown regime
      "app,tax=0.1",       // tax only applies to thread
      "offload,tax=0.1",   // same
      "thread,tax=nope",   // not a number
      "thread,tax=-0.1",   // negative
      "thread,tax=11",     // above the [0, 10] cap
      "thread,tax",        // missing '='
      "thread,warp=2",     // unknown key
  };
  for (const char* spec : bad) {
    EXPECT_THROW(dimemas::parse_progress_spec(spec), Error)
        << "spec: " << spec;
  }
}

// --- bit-identity when off --------------------------------------------------

TEST(ProgressOff, GoldenFingerprintAndMakespan) {
  // The same constants faults_test pins: an offload replay (and its cache
  // fingerprint) must stay bit-identical to the pre-progress-engine build.
  const pipeline::ReplayContext context(golden_trace(), golden_platform());
  EXPECT_EQ(context.fingerprint().lo, 0x74c0e995af9cbdb9ull);
  EXPECT_EQ(context.fingerprint().hi, 0x16a56852733e68eaull);
  const dimemas::SimResult result = pipeline::run_scenario(context);
  EXPECT_EQ(result.makespan, 0.00095243199999999991);
}

TEST(ProgressOff, InertModelKeepsFingerprint) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  const pipeline::ReplayContext derived =
      base.with_progress(dimemas::ProgressModel{});
  EXPECT_EQ(derived.fingerprint().lo, base.fingerprint().lo);
  EXPECT_EQ(derived.fingerprint().hi, base.fingerprint().hi);
  // An offload model with a non-default tax is still inert: the tax only
  // exists under the thread regime.
  dimemas::ProgressModel offload_with_tax;
  offload_with_tax.thread_cpu_tax = 0.5;
  const pipeline::ReplayContext derived2 =
      base.with_progress(offload_with_tax);
  EXPECT_EQ(derived2.fingerprint().lo, base.fingerprint().lo);
  EXPECT_EQ(derived2.fingerprint().hi, base.fingerprint().hi);
}

TEST(ProgressOn, EnabledRegimesChangeFingerprint) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  const pipeline::ReplayContext app =
      base.with_progress(dimemas::parse_progress_spec("app"));
  const pipeline::ReplayContext thread =
      base.with_progress(dimemas::parse_progress_spec("thread"));
  const pipeline::ReplayContext taxed =
      base.with_progress(dimemas::parse_progress_spec("thread,tax=0.5"));
  EXPECT_FALSE(app.fingerprint().lo == base.fingerprint().lo &&
               app.fingerprint().hi == base.fingerprint().hi);
  EXPECT_FALSE(thread.fingerprint().lo == base.fingerprint().lo &&
               thread.fingerprint().hi == base.fingerprint().hi);
  EXPECT_FALSE(app.fingerprint().lo == thread.fingerprint().lo &&
               app.fingerprint().hi == thread.fingerprint().hi);
  // The tax is part of the cache key.
  EXPECT_FALSE(taxed.fingerprint().lo == thread.fingerprint().lo &&
               taxed.fingerprint().hi == thread.fingerprint().hi);
}

// --- regime effects ---------------------------------------------------------

TEST(ProgressEffects, AppDrivenNeverBeatsOffload) {
  const double offload =
      pipeline::run_scenario(progress_context("offload")).makespan;
  const double app = pipeline::run_scenario(progress_context("app")).makespan;
  EXPECT_GE(app, offload);
  EXPECT_TRUE(std::isfinite(app));
}

TEST(ProgressEffects, ThreadTaxStretchesCompute) {
  const double offload =
      pipeline::run_scenario(progress_context("offload")).makespan;
  const double cheap =
      pipeline::run_scenario(progress_context("thread,tax=0.01")).makespan;
  const double dear =
      pipeline::run_scenario(progress_context("thread,tax=0.5")).makespan;
  EXPECT_GT(cheap, offload);
  EXPECT_GT(dear, cheap);
  // tax=0 is a free progress thread: continuous progress at no CPU cost,
  // which on this workload replays exactly like offload.
  const double free_thread =
      pipeline::run_scenario(progress_context("thread,tax=0")).makespan;
  EXPECT_EQ(free_thread, offload);
}

// --- determinism across jobs and store tiers --------------------------------

TEST(ProgressDeterminism, SameResultAcrossJobs) {
  for (const char* spec : {"offload", "app", "thread"}) {
    std::vector<pipeline::ReplayContext> contexts;
    for (int i = 0; i < 6; ++i) contexts.push_back(progress_context(spec));
    std::vector<double> reference;
    for (const int jobs : {1, 8}) {
      pipeline::StudyOptions options;
      options.jobs = jobs;
      pipeline::Study study(options);
      const std::vector<double> times = study.map(
          contexts, [](const pipeline::ReplayContext& c) {
            return pipeline::run_scenario(c).makespan;
          });
      for (const double t : times) {
        EXPECT_EQ(t, times[0]) << "spec=" << spec << " jobs=" << jobs;
      }
      if (reference.empty()) {
        reference = times;
      } else {
        EXPECT_EQ(times, reference) << "spec=" << spec << " jobs=" << jobs;
      }
    }
  }
}

TEST(ProgressDeterminism, WarmStoreServesIdenticalResults) {
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "/osim_progress_store_test";
  fs::remove_all(dir);
  for (const char* spec : {"offload", "app", "thread"}) {
    const pipeline::ReplayContext context = progress_context(spec);
    double cold = 0.0;
    {
      pipeline::StudyOptions options;
      options.cache_dir = dir;
      options.record_scenarios = true;
      pipeline::Study study(options);
      cold = study.makespan(context, spec);
      ASSERT_EQ(study.scenarios().size(), 1u);
      EXPECT_EQ(study.scenarios()[0].cache_tier, pipeline::CacheTier::kMiss)
          << "spec=" << spec;
    }
    {
      pipeline::StudyOptions options;
      options.cache_dir = dir;
      options.record_scenarios = true;
      pipeline::Study study(options);
      const double warm = study.makespan(context, spec);
      ASSERT_EQ(study.scenarios().size(), 1u);
      EXPECT_EQ(study.scenarios()[0].cache_tier, pipeline::CacheTier::kDisk)
          << "spec=" << spec;
      EXPECT_EQ(warm, cold) << "spec=" << spec;
    }
  }
  fs::remove_all(dir);
}

// --- metrics & reports ------------------------------------------------------

TEST(ProgressMetrics, AppDrivenAttributesProgressWait) {
  const dimemas::SimResult result = pipeline::run_scenario(
      progress_context("app", /*collect_metrics=*/true));
  ASSERT_NE(result.metrics, nullptr);
  double progress_wait = 0.0;
  for (const metrics::RankWaitAttribution& rank :
       result.metrics->rank_waits) {
    const metrics::WaitComponents total = rank.total();
    progress_wait += total.progress_s;
    // The progress component is part of the decomposition, never extra.
    EXPECT_LE(total.progress_s, total.total_s() + 1e-12);
    EXPECT_GE(total.progress_s, 0.0);
  }
  EXPECT_GT(progress_wait, 0.0);
}

TEST(ProgressMetrics, OffloadHasZeroProgressWait) {
  const dimemas::SimResult result = pipeline::run_scenario(
      progress_context("offload", /*collect_metrics=*/true));
  ASSERT_NE(result.metrics, nullptr);
  for (const metrics::RankWaitAttribution& rank :
       result.metrics->rank_waits) {
    EXPECT_EQ(rank.total().progress_s, 0.0);
  }
}

TEST(ProgressReports, ReplayReportGatesProgressComponent) {
  const std::string offload_json = pipeline::replay_report_json(
      pipeline::run_scenario(
          progress_context("offload", /*collect_metrics=*/true)),
      golden_platform(), "golden");
  EXPECT_EQ(offload_json.find("\"progress_s\""), std::string::npos);
  const std::string app_json = pipeline::replay_report_json(
      pipeline::run_scenario(
          progress_context("app", /*collect_metrics=*/true)),
      golden_platform(), "golden");
  EXPECT_NE(app_json.find("\"progress_s\""), std::string::npos);
}

TEST(ProgressReports, StudyReportCarriesProgressWait) {
  pipeline::StudyOptions options;
  options.record_scenarios = true;
  pipeline::Study study(options);
  study.makespan(progress_context("app", /*collect_metrics=*/true), "app");
  study.makespan(progress_context("app", /*collect_metrics=*/true),
                 "app-again");  // memory hit keeps its attribution
  const std::string json = pipeline::study_report_json(study);
  EXPECT_NE(json.find("\"progress_wait_s\""), std::string::npos);
  const std::vector<pipeline::ScenarioRecord> records = study.scenarios();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GT(records[0].progress_wait_s, 0.0);
  EXPECT_EQ(records[0].progress_wait_s, records[1].progress_wait_s);

  // Offload-only studies must not mention the axis at all.
  pipeline::Study clean(options);
  clean.makespan(progress_context("offload", /*collect_metrics=*/true),
                 "offload");
  EXPECT_EQ(pipeline::study_report_json(clean).find("\"progress_wait_s\""),
            std::string::npos);
}

// --- scenario axis ----------------------------------------------------------

TEST(ProgressScenarios, CrossProgressDerivesContexts) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  const std::vector<pipeline::ProgressScenario> axis = {
      {"offload", dimemas::ProgressModel{}},
      {"app", dimemas::parse_progress_spec("app")},
      {"thread", dimemas::parse_progress_spec("thread")},
  };
  const std::vector<pipeline::ReplayContext> derived =
      pipeline::cross_progress(base, axis);
  ASSERT_EQ(derived.size(), 3u);
  EXPECT_EQ(derived[0].fingerprint().lo, base.fingerprint().lo);
  EXPECT_EQ(derived[0].fingerprint().hi, base.fingerprint().hi);
  EXPECT_FALSE(derived[1].fingerprint().lo == base.fingerprint().lo &&
               derived[1].fingerprint().hi == base.fingerprint().hi);
  EXPECT_FALSE(derived[2].fingerprint().lo == derived[1].fingerprint().lo &&
               derived[2].fingerprint().hi == derived[1].fingerprint().hi);
}

// --- pinned golden: the advanced-send win under app-driven progress ---------

TEST(ProgressGolden, AppDrivenErasesAdvancedSendWin) {
  // sweep3d, 8 ranks, 2 iterations: the bundled workload where advancing
  // sends buys the clearest overlap win under offload progress (~4.8%).
  const apps::MiniApp* app = apps::find_app("sweep3d");
  ASSERT_NE(app, nullptr);
  apps::AppConfig config;
  config.ranks = 8;
  config.iterations = 2;
  const tracer::TracedRun traced =
      apps::trace_app(*app, config, tracer::TracerOptions{});
  dimemas::Platform platform =
      dimemas::Platform::marenostrum(8, app->paper_buses());
  // At this configuration the wavefront messages sit under the 16 KiB
  // eager threshold, and eager transfers are regime-neutral (an arrival
  // observed late is still observed at the same wait). Force the
  // rendezvous path — where the RTS/CTS handshake needs host attention —
  // so the regimes can differ.
  platform.eager_threshold_bytes = 1024;

  overlap::OverlapOptions with_advance;  // defaults: all mechanisms on
  overlap::OverlapOptions no_advance = with_advance;
  no_advance.advance_sends = false;

  auto makespan = [&](const overlap::OverlapOptions& overlap_options,
                      const char* spec) {
    dimemas::ReplayOptions replay;
    replay.progress = dimemas::parse_progress_spec(spec);
    return pipeline::run_scenario(
               pipeline::make_context(traced.annotated,
                                      pipeline::TraceVariant::kOverlapMeasured,
                                      overlap_options, platform, replay))
        .makespan;
  };
  const double offload_adv = makespan(with_advance, "offload");
  const double offload_noadv = makespan(no_advance, "offload");
  const double app_adv = makespan(with_advance, "app");
  const double app_noadv = makespan(no_advance, "app");

  // Pinned golden (exact doubles): the offload pair must stay bit-identical
  // to the pre-progress-engine engine; the app-driven pair pins the gated
  // hot path against silent behavior drift.
  EXPECT_EQ(offload_adv, 0.016887525565217387);
  EXPECT_EQ(offload_noadv, 0.017696794434782601);
  EXPECT_EQ(app_adv, 0.016290713739130436);
  EXPECT_EQ(app_noadv, 0.015941325217391316);

  // Under offload, advancing sends wins ~4.8%. Under application-driven
  // progress the handshake gating eats the head start entirely — the win
  // drops below 1 (the delayed transfer starts also reorder the bus queue,
  // which is why the gated replays can undercut offload here; on a
  // contention-free network app-driven is never faster than offload).
  const double win_offload = offload_noadv / offload_adv;
  const double win_app = app_noadv / app_adv;
  EXPECT_GT(win_offload, 1.04);
  EXPECT_LT(win_app, 1.0);
  EXPECT_LT(win_app, win_offload);
}

}  // namespace
}  // namespace osim
