// Tests for the fault & perturbation injection subsystem: spec grammar,
// the bit-identity contract when faults are off, per-seed determinism
// (independent of study parallelism), mechanism effects, and how fault
// activity surfaces in metrics and reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "dimemas/replay.hpp"
#include "faults/injector.hpp"
#include "faults/model.hpp"
#include "faults/spec.hpp"
#include "metrics/attribution.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

/// Fixed 4-rank ring workload: the same construction that produced the
/// golden constants below on the pre-fault-injection build.
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

pipeline::ReplayContext faulted_context(const std::string& spec,
                                        bool collect_metrics = false) {
  dimemas::ReplayOptions options;
  options.collect_metrics = collect_metrics;
  options.faults = faults::parse_spec(spec);
  return pipeline::ReplayContext(golden_trace(), golden_platform(), options);
}

// --- spec grammar -----------------------------------------------------------

TEST(FaultSpec, RoundTripsCanonicalForm) {
  const char* specs[] = {
      "seed=42",
      "loss=0.02",
      "seed=7;loss=0.02,timeout=50us,backoff=3,retries=4",
      "noise=0.25,prob=0.5",
      "degrade=0-1,from=0.001s,until=0.002s,bw=0.5,lat=10us",
      "degrade=any-any,bw=0.25;straggler=2,from=1ms,until=2ms,cpu=0.5",
  };
  for (const char* spec : specs) {
    const faults::FaultModel model = faults::parse_spec(spec);
    const std::string canonical = faults::to_spec(model);
    // Canonical form is a fixed point: parse(canon(parse(s))) == canon.
    EXPECT_EQ(faults::to_spec(faults::parse_spec(canonical)), canonical)
        << "spec: " << spec;
  }
}

TEST(FaultSpec, InertModelHasEmptySpec) {
  EXPECT_EQ(faults::to_spec(faults::FaultModel{}), "");
  EXPECT_FALSE(faults::FaultModel{}.enabled());
  EXPECT_FALSE(faults::parse_spec("seed=99").enabled());
}

TEST(FaultSpec, DurationUnits) {
  const faults::FaultModel model =
      faults::parse_spec("loss=0.1,timeout=2ms");
  EXPECT_DOUBLE_EQ(model.loss.timeout_us, 2000.0);
}

TEST(FaultSpec, MalformedSpecsThrowNamingTheClause) {
  const char* bad[] = {
      "loss=2.0",                 // probability out of range
      "loss=nope",                // not a number
      "warp=0.5",                 // unknown mechanism
      "degrade=0,bw=0.5",         // missing -dst
      "degrade=0-1,bw=0",         // scale must be > 0
      "straggler=0,cpu=1.5",      // scale must be <= 1
      "loss=0.1,timeout=-1us",    // negative duration
      "seed=abc",
  };
  for (const char* spec : bad) {
    EXPECT_THROW(faults::parse_spec(spec), Error) << "spec: " << spec;
  }
}

// --- bit-identity when off --------------------------------------------------

TEST(FaultsOff, GoldenFingerprintAndMakespan) {
  // Constants captured on the build immediately before fault injection was
  // added. Exact equality is the point: a faults-off replay (and its cache
  // fingerprint) must be bit-identical to the pre-fault engine.
  const pipeline::ReplayContext context(golden_trace(), golden_platform());
  EXPECT_EQ(context.fingerprint().lo, 0x74c0e995af9cbdb9ull);
  EXPECT_EQ(context.fingerprint().hi, 0x16a56852733e68eaull);
  const dimemas::SimResult result = pipeline::run_scenario(context);
  EXPECT_EQ(result.makespan, 0.00095243199999999991);
  EXPECT_FALSE(result.fault_counts.enabled);
}

TEST(FaultsOff, InertModelKeepsFingerprint) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  faults::FaultModel inert;
  inert.seed = 1234;  // seed alone enables nothing
  const pipeline::ReplayContext derived = base.with_faults(inert);
  EXPECT_EQ(derived.fingerprint().lo, base.fingerprint().lo);
  EXPECT_EQ(derived.fingerprint().hi, base.fingerprint().hi);
}

TEST(FaultsOn, EnabledModelChangesFingerprint) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  const pipeline::ReplayContext lossy =
      base.with_faults(faults::parse_spec("loss=0.02"));
  EXPECT_FALSE(lossy.fingerprint().lo == base.fingerprint().lo &&
               lossy.fingerprint().hi == base.fingerprint().hi);
  // Different seeds are different cache keys.
  const pipeline::ReplayContext lossy7 =
      base.with_faults(faults::parse_spec("seed=7;loss=0.02"));
  EXPECT_FALSE(lossy7.fingerprint().lo == lossy.fingerprint().lo &&
               lossy7.fingerprint().hi == lossy.fingerprint().hi);
}

// --- determinism ------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSameResultAcrossJobs) {
  const char* spec =
      "seed=11;loss=0.05,timeout=20us;noise=0.2;degrade=any-any,bw=0.5;"
      "straggler=1,until=1s,cpu=0.5";
  std::vector<pipeline::ReplayContext> contexts;
  for (int i = 0; i < 6; ++i) contexts.push_back(faulted_context(spec));
  std::vector<double> reference;
  faults::Counts reference_counts;
  for (const int jobs : {1, 2, 8}) {
    pipeline::StudyOptions options;
    options.jobs = jobs;
    pipeline::Study study(options);
    const std::vector<double> times = study.map(
        contexts, [](const pipeline::ReplayContext& c) {
          return pipeline::run_scenario(c).makespan;
        });
    const dimemas::SimResult result = pipeline::run_scenario(contexts[0]);
    for (const double t : times) {
      EXPECT_EQ(t, times[0]) << "jobs=" << jobs;
    }
    if (reference.empty()) {
      reference = times;
      reference_counts = result.fault_counts;
    } else {
      EXPECT_EQ(times, reference) << "jobs=" << jobs;
      EXPECT_EQ(result.fault_counts, reference_counts) << "jobs=" << jobs;
    }
  }
}

TEST(FaultDeterminism, DifferentSeedsDiffer) {
  const double a =
      pipeline::run_scenario(faulted_context("seed=1;loss=0.2")).makespan;
  double max_delta = 0.0;
  for (const int seed : {2, 3, 4, 5}) {
    const std::string spec = "seed=" + std::to_string(seed) + ";loss=0.2";
    const double b = pipeline::run_scenario(faulted_context(spec)).makespan;
    max_delta = std::max(max_delta, std::abs(a - b));
  }
  EXPECT_GT(max_delta, 0.0) << "five seeds produced identical makespans";
}

// --- mechanism effects ------------------------------------------------------

TEST(FaultEffects, LossDelaysAndCounts) {
  const double clean =
      pipeline::run_scenario(
          pipeline::ReplayContext(golden_trace(), golden_platform()))
          .makespan;
  const dimemas::SimResult lossy =
      pipeline::run_scenario(faulted_context("seed=3;loss=0.3"));
  EXPECT_GT(lossy.makespan, clean);
  EXPECT_TRUE(lossy.fault_counts.enabled);
  EXPECT_EQ(lossy.fault_counts.seed, 3u);
  EXPECT_GT(lossy.fault_counts.messages_dropped, 0u);
  EXPECT_GT(lossy.fault_counts.retransmits +
                lossy.fault_counts.handshake_reissues,
            0u);
  EXPECT_GT(lossy.fault_counts.injected_delay_s, 0.0);
}

TEST(FaultEffects, HardStallsTerminate) {
  // Extreme loss with a tiny retry budget: every message hard-stalls, yet
  // the replay must still terminate with finite makespan.
  const dimemas::SimResult result = pipeline::run_scenario(
      faulted_context("seed=5;loss=0.99,retries=2,timeout=10us"));
  EXPECT_GT(result.fault_counts.hard_stalls, 0u);
  EXPECT_TRUE(std::isfinite(result.makespan));
}

TEST(FaultEffects, DegradationSlowsTransfers) {
  const double clean =
      pipeline::run_scenario(
          pipeline::ReplayContext(golden_trace(), golden_platform()))
          .makespan;
  const dimemas::SimResult degraded = pipeline::run_scenario(
      faulted_context("degrade=any-any,bw=0.25,lat=50us"));
  EXPECT_GT(degraded.makespan, clean);
  EXPECT_GT(degraded.fault_counts.degraded_transfers, 0u);
  EXPECT_EQ(degraded.fault_counts.messages_dropped, 0u);
}

TEST(FaultEffects, StragglerSlowsItsRankOnly) {
  const dimemas::SimResult straggled = pipeline::run_scenario(
      faulted_context("straggler=0,until=1s,cpu=0.25"));
  const double clean =
      pipeline::run_scenario(
          pipeline::ReplayContext(golden_trace(), golden_platform()))
          .makespan;
  EXPECT_GT(straggled.makespan, clean);
  EXPECT_GT(straggled.fault_counts.straggled_bursts, 0u);
  EXPECT_GT(straggled.fault_counts.injected_compute_s, 0.0);
}

TEST(FaultEffects, NoisePerturbsCompute) {
  const dimemas::SimResult noisy =
      pipeline::run_scenario(faulted_context("seed=9;noise=0.5"));
  const double clean =
      pipeline::run_scenario(
          pipeline::ReplayContext(golden_trace(), golden_platform()))
          .makespan;
  EXPECT_GE(noisy.makespan, clean);
  EXPECT_GT(noisy.fault_counts.perturbed_bursts, 0u);
}

// --- metrics & reports ------------------------------------------------------

TEST(FaultMetrics, WaitAttributionCarriesFaultComponent) {
  const dimemas::SimResult result = pipeline::run_scenario(
      faulted_context("seed=3;loss=0.3", /*collect_metrics=*/true));
  ASSERT_NE(result.metrics, nullptr);
  double fault_wait = 0.0;
  for (const metrics::RankWaitAttribution& rank :
       result.metrics->rank_waits) {
    const metrics::WaitComponents total = rank.total();
    fault_wait += total.fault_s;
    // The fault component is part of the decomposition, never extra time.
    EXPECT_LE(total.fault_s, total.total_s() + 1e-12);
  }
  EXPECT_GT(fault_wait, 0.0);
}

TEST(FaultReports, ReplayReportGatesFaultSection) {
  const pipeline::ReplayContext clean_context(
      golden_trace(), golden_platform());
  const std::string clean_json = pipeline::replay_report_json(
      pipeline::run_scenario(clean_context), golden_platform(), "golden");
  EXPECT_EQ(clean_json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(clean_json.find("fault_s"), std::string::npos);

  const std::string lossy_json = pipeline::replay_report_json(
      pipeline::run_scenario(
          faulted_context("seed=3;loss=0.3", /*collect_metrics=*/true)),
      golden_platform(), "golden");
  EXPECT_NE(lossy_json.find("\"faults\""), std::string::npos);
  EXPECT_NE(lossy_json.find("\"retransmits\""), std::string::npos);
  EXPECT_NE(lossy_json.find("\"fault_s\""), std::string::npos);
}

TEST(FaultReports, StudyReportCarriesCounters) {
  pipeline::StudyOptions options;
  options.record_scenarios = true;
  pipeline::Study study(options);
  const pipeline::ReplayContext lossy =
      faulted_context("seed=3;loss=0.3", /*collect_metrics=*/true);
  study.makespan(lossy, "lossy");
  study.makespan(lossy, "lossy-again");  // cache hit keeps its counters
  const std::string json = pipeline::study_report_json(study);
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_wait_s\""), std::string::npos);
  const std::vector<pipeline::ScenarioRecord> records = study.scenarios();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].fault_counts.enabled);
  EXPECT_TRUE(records[1].fault_counts.enabled);
  EXPECT_EQ(records[0].fault_counts.retransmits,
            records[1].fault_counts.retransmits);
  EXPECT_EQ(records[0].fault_wait_s, records[1].fault_wait_s);
}

// --- scenario axis ----------------------------------------------------------

TEST(FaultScenarios, CrossFaultsDerivesContexts) {
  const pipeline::ReplayContext base(golden_trace(), golden_platform());
  const std::vector<pipeline::FaultScenario> axis = {
      {"clean", faults::FaultModel{}},
      {"lossy", faults::parse_spec("loss=0.1")},
      {"degraded", faults::parse_spec("degrade=any-any,bw=0.5")},
  };
  const std::vector<pipeline::ReplayContext> derived =
      pipeline::cross_faults(base, axis);
  ASSERT_EQ(derived.size(), 3u);
  EXPECT_EQ(derived[0].fingerprint().lo, base.fingerprint().lo);
  EXPECT_FALSE(derived[1].fingerprint().lo == base.fingerprint().lo &&
               derived[1].fingerprint().hi == base.fingerprint().hi);
  EXPECT_FALSE(derived[2].fingerprint().lo == derived[1].fingerprint().lo &&
               derived[2].fingerprint().hi == derived[1].fingerprint().hi);
}

}  // namespace
}  // namespace osim
