// Tests for the pipeline layer: ReplayContext construction-time validation
// and fingerprinting, Study caching, and — the load-bearing property of the
// whole subsystem — parallel evaluation being bit-identical to serial.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bandwidth.hpp"
#include "app_traces.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/progress.hpp"
#include "faults/spec.hpp"
#include "lint/lint.hpp"
#include "metrics/json.hpp"
#include "metrics/replay_metrics.hpp"
#include "pipeline/context.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "trace/trace.hpp"

namespace osim::pipeline {
namespace {

// Ring exchange: every rank sends to its successor and receives from its
// predecessor, `rounds` times. Communication-bound enough that bandwidth
// changes move the makespan.
trace::Trace ring_trace(std::int32_t ranks, int rounds) {
  trace::TraceBuilder b(ranks, 1000.0);
  for (trace::Rank r = 0; r < ranks; ++r) {
    const trace::Rank next = static_cast<trace::Rank>((r + 1) % ranks);
    const trace::Rank prev =
        static_cast<trace::Rank>((r + ranks - 1) % ranks);
    for (int i = 0; i < rounds; ++i) {
      b.irecv(r, prev, i, 32 * 1024, i + 1);
      b.compute(r, 20'000);
      b.send(r, next, i, 32 * 1024);
      b.wait(r, {i + 1});
    }
  }
  return std::move(b).build();
}

dimemas::Platform ring_platform(std::int32_t nodes) {
  dimemas::Platform p;
  p.num_nodes = nodes;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  return p;
}

// --- ReplayContext ----------------------------------------------------------

TEST(ReplayContext, InvalidTraceFailsAtConstruction) {
  trace::TraceBuilder b(2, 1000.0);
  b.send(0, 1, 7, 1024);  // no matching receive anywhere
  trace::Trace t = std::move(b).build();
  try {
    const ReplayContext context(std::move(t), ring_platform(2));
    FAIL() << "construction accepted an invalid trace";
  } catch (const Error& e) {
    // The failure carries check_structure's record-anchored diagnostics.
    EXPECT_EQ(std::string(e.what()),
              "ReplayContext: trace failed validation:\n"
              "error [match] rank 0 record 0: unmatched send to rank 1 tag 7 "
              "(1024 bytes): rank 1 posts only 0 matching recv(s)\n"
              "1 error(s), 0 warning(s)\n");
  }
}

TEST(ReplayContext, FingerprintIsContentBased) {
  const ReplayContext a(ring_trace(4, 2), ring_platform(4));
  const ReplayContext b(ring_trace(4, 2), ring_platform(4));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // separate but equal traces

  const ReplayContext different_trace(ring_trace(4, 3), ring_platform(4));
  EXPECT_NE(a.fingerprint(), different_trace.fingerprint());

  dimemas::Platform faster = ring_platform(4);
  faster.bandwidth_MBps = 500.0;
  EXPECT_NE(a.fingerprint(), a.with_platform(faster).fingerprint());
  EXPECT_EQ(a.fingerprint(),
            a.with_bandwidth(ring_platform(4).bandwidth_MBps).fingerprint());

  dimemas::ReplayOptions timeline;
  timeline.record_timeline = true;
  EXPECT_NE(a.fingerprint(), a.with_options(timeline).fingerprint());
}

TEST(ReplayContext, DerivedContextsShareTheTrace) {
  const ReplayContext base(ring_trace(4, 2), ring_platform(4));
  const ReplayContext derived = base.with_bandwidth(10.0);
  EXPECT_EQ(base.trace_ptr().get(), derived.trace_ptr().get());
  dimemas::Platform p = ring_platform(4);
  p.latency_us = 0.0;
  EXPECT_EQ(base.trace_ptr().get(),
            base.with_platform(p).trace_ptr().get());
}

// --- ReplayContext: one lowered program per context family ------------------

void expect_same_replay(const dimemas::SimResult& got,
                        const dimemas::SimResult& want) {
  EXPECT_EQ(strprintf("%a", got.makespan), strprintf("%a", want.makespan));
  EXPECT_EQ(got.des_events, want.des_events);
  EXPECT_EQ(got.rank_stats, want.rank_stats);
}

// Every derived context replays exactly like a fresh lowering of its own
// (trace, platform, options). The base replays first, so its family's
// program exists before the collective-algorithm derivatives are made: a
// with_options that kept the family's program for another algorithm would
// replay stale lanes here.
TEST(ReplayContext, FamiliesReplayLikeFreshLowerings) {
  int families = 0;
  int algo_sensitive = 0;
  testing_fixtures::for_each_app_context(
      [&](const std::string& app, const char* variant, std::int32_t,
          const ReplayContext& base) {
        SCOPED_TRACE(app + " " + variant);
        const dimemas::SimResult base_result = run_scenario(base);
        expect_same_replay(base_result,
                           dimemas::replay(base.trace(), base.platform(),
                                           base.options()));
        const std::vector<ReplayContext> shared = {
            base.with_bandwidth(50.0), base.with_bandwidth(400.0),
            base.with_bandwidth(2000.0),
            base.with_faults(faults::parse_spec("seed=7;loss=0.02")),
            base.with_progress(dimemas::parse_progress_spec("app"))};
        for (const ReplayContext& context : shared) {
          EXPECT_EQ(context.program().get(), base.program().get());
          expect_same_replay(run_scenario(context),
                             dimemas::replay(context.trace(),
                                             context.platform(),
                                             context.options()));
        }
        for (const dimemas::CollectiveAlgo algo :
             {dimemas::CollectiveAlgo::kLinear,
              dimemas::CollectiveAlgo::kRecursiveDoubling}) {
          SCOPED_TRACE(dimemas::collective_algo_name(algo));
          dimemas::ReplayOptions options = base.options();
          options.collective_algo = algo;
          const ReplayContext context = base.with_options(options);
          EXPECT_NE(context.program().get(), base.program().get());
          const dimemas::SimResult result = run_scenario(context);
          expect_same_replay(result,
                             dimemas::replay(context.trace(),
                                             context.platform(), options));
          if (result.des_events != base_result.des_events ||
              result.makespan != base_result.makespan) {
            ++algo_sensitive;
          }
        }
        ++families;
      },
      {16});
  EXPECT_EQ(families, 12);
  // The algorithm derivatives would expose a stale program: half of them
  // or more replay differently from the base.
  EXPECT_GE(algo_sensitive, 12);
}

TEST(ReplayContext, OptionsThatLowerAlikeShareTheProgram) {
  const ReplayContext base(ring_trace(4, 2), ring_platform(4));
  dimemas::ReplayOptions recording = base.options();
  recording.record_timeline = true;
  recording.collect_metrics = true;
  EXPECT_EQ(base.with_options(recording).program().get(),
            base.program().get());
  dimemas::ReplayOptions linear = base.options();
  linear.collective_algo = dimemas::CollectiveAlgo::kLinear;
  EXPECT_NE(base.with_options(linear).program().get(),
            base.program().get());
}

// --- scenario lowering ------------------------------------------------------

TEST(Scenario, VariantsProduceDistinctContexts) {
  // A minimal annotated pair: rank 0 produces in a late burst and sends,
  // rank 1 receives and consumes in an early burst. The bursty measured
  // pattern cannot coincide with the ideal (linear) pattern, so all three
  // variants lower to distinct traces.
  trace::AnnotatedTrace t = trace::AnnotatedTrace::make(2, 1000.0);
  trace::AnnEvent send;
  send.kind = trace::AnnEvent::Kind::kSend;
  send.vclock = 100'000;
  send.peer = 1;
  send.tag = 0;
  send.elem_bytes = 100;
  send.bytes = 10'000;
  send.buffer_id = 0;
  send.chunkable = true;
  send.interval_start = 0;
  send.elem_last_store.resize(100);
  for (std::size_t i = 0; i < 100; ++i) {
    send.elem_last_store[i] = 90'000 + 100 * (i + 1);
  }
  t.ranks[0].events.push_back(send);
  t.ranks[0].final_vclock = 100'000;

  trace::AnnEvent recv;
  recv.kind = trace::AnnEvent::Kind::kRecv;
  recv.vclock = 0;
  recv.peer = 0;
  recv.tag = 0;
  recv.elem_bytes = 100;
  recv.bytes = 10'000;
  recv.buffer_id = 0;
  recv.chunkable = true;
  recv.interval_end = 100'000;
  recv.elem_first_load.resize(100);
  for (std::size_t i = 0; i < 100; ++i) {
    recv.elem_first_load[i] = 5'000 + 10 * i;
  }
  t.ranks[1].events.push_back(recv);
  t.ranks[1].final_vclock = 100'000;

  const overlap::OverlapOptions options;
  const dimemas::Platform p = ring_platform(2);
  const ReplayContext original =
      make_context(t, TraceVariant::kOriginal, options, p);
  const ReplayContext measured =
      make_context(t, TraceVariant::kOverlapMeasured, options, p);
  const ReplayContext ideal =
      make_context(t, TraceVariant::kOverlapIdeal, options, p);
  EXPECT_NE(original.fingerprint(), measured.fingerprint());
  EXPECT_NE(original.fingerprint(), ideal.fingerprint());
  EXPECT_NE(measured.fingerprint(), ideal.fingerprint());

  // run_scenario and Study::makespan agree on the same context.
  Study study;
  EXPECT_DOUBLE_EQ(run_scenario(original).makespan,
                   study.makespan(original));
}

// --- Study: determinism -----------------------------------------------------

std::vector<ReplayContext> bandwidth_sweep_contexts() {
  const ReplayContext base(ring_trace(8, 4), ring_platform(8));
  std::vector<ReplayContext> contexts;
  for (int i = 1; i <= 24; ++i) {
    contexts.push_back(base.with_bandwidth(10.0 * i));
  }
  return contexts;
}

TEST(Study, ParallelIsBitIdenticalToSerial) {
  const std::vector<ReplayContext> contexts = bandwidth_sweep_contexts();
  auto run_with_jobs = [&contexts](int jobs) {
    StudyOptions options;
    options.jobs = jobs;
    Study study(options);
    return study.map(contexts, [&study](const ReplayContext& c) {
      return study.makespan(c);
    });
  };
  const std::vector<double> serial = run_with_jobs(1);
  for (const int jobs : {2, 8}) {
    const std::vector<double> parallel = run_with_jobs(jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not approximately equal: replay is pure.
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " item " << i;
    }
  }
}

// Sixteen bandwidths of one base that has never replayed: the pool's first
// replays race to lower the family's program. They must build one program
// and replay bit-identically to a serial run.
TEST(Study, RacingFirstReplaysLowerOneProgram) {
  const auto sweep = [](int jobs) {
    trace::Trace t = ring_trace(8, 4);
    for (trace::Rank r = 0; r < t.num_ranks; ++r) {
      t.ranks[static_cast<std::size_t>(r)].push_back(trace::GlobalOp{
          trace::CollectiveKind::kAllreduce, 0, 64 * 1024, 0});
    }
    const ReplayContext base(std::move(t), ring_platform(8));
    std::vector<ReplayContext> contexts;
    for (int i = 1; i <= 16; ++i) {
      contexts.push_back(base.with_bandwidth(25.0 * i));
    }
    StudyOptions options;
    options.jobs = jobs;
    Study study(options);
    const std::vector<double> makespans = study.map(
        contexts, [&study](const ReplayContext& c) { return study.makespan(c); });
    EXPECT_EQ(study.cache_misses(), contexts.size());
    for (const ReplayContext& context : contexts) {
      EXPECT_EQ(context.program().get(), base.program().get());
    }
    return makespans;
  };
  const std::vector<double> serial = sweep(1);
  const std::vector<double> parallel = sweep(4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(strprintf("%a", parallel[i]), strprintf("%a", serial[i]))
        << "bandwidth " << i;
  }
}

// --- Study: caching ---------------------------------------------------------

TEST(Study, RepeatedScenarioHitsTheCache) {
  const ReplayContext context(ring_trace(4, 2), ring_platform(4));
  Study study;
  const double first = study.makespan(context);
  EXPECT_EQ(study.cache_misses(), 1u);
  EXPECT_EQ(study.cache_hits(), 0u);
  EXPECT_EQ(study.makespan(context), first);
  EXPECT_EQ(study.cache_misses(), 1u);
  EXPECT_EQ(study.cache_hits(), 1u);
  // An equal-content context (fresh trace copy) also hits.
  const ReplayContext twin(ring_trace(4, 2), ring_platform(4));
  EXPECT_EQ(study.makespan(twin), first);
  EXPECT_EQ(study.cache_hits(), 2u);
  EXPECT_EQ(study.cache_size(), 1u);
}

TEST(Study, RepeatedBisectionProbesAreCached) {
  // The paper's searches re-probe shared endpoints; a repeated bisection
  // must be answered entirely from the cache.
  const ReplayContext context(ring_trace(8, 4), ring_platform(8));
  Study study;
  const double target = analysis::time_at_bandwidth(study, context, 50.0);
  const auto first = analysis::min_bandwidth_for(study, context, target);
  ASSERT_TRUE(first.has_value());
  const std::size_t misses_after_first = study.cache_misses();
  const std::size_t hits_after_first = study.cache_hits();
  EXPECT_GT(misses_after_first, 2u);  // the bisection actually probed

  const auto second = analysis::min_bandwidth_for(study, context, target);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);  // deterministic search, bit-identical result
  EXPECT_EQ(study.cache_misses(), misses_after_first)
      << "repeat search must not replay anything";
  EXPECT_GT(study.cache_hits(), hits_after_first);
}

template <class T>
concept HasCacheSwitch = requires(T options) { options.cache_replays; };

// The makespan cache has no off switch: a repeated scenario is always
// served from memory. Code that needs every replay to really run calls
// run_scenario (through map() for a pool), not makespan().
TEST(Study, MakespanAlwaysServesRepeatsFromTheCache) {
  EXPECT_FALSE(HasCacheSwitch<StudyOptions>);
  const ReplayContext context(ring_trace(2, 1), ring_platform(2));
  Study study;
  const double first = study.makespan(context);
  EXPECT_EQ(study.makespan(context), first);
  EXPECT_EQ(study.cache_hits(), 1u);
  EXPECT_EQ(study.cache_misses(), 1u);
  EXPECT_EQ(study.cache_size(), 1u);
}

// --- Study: exception propagation and pool health ---------------------------

TEST(Study, WorkItemExceptionPropagatesWithoutDeadlock) {
  StudyOptions options;
  options.jobs = 4;
  Study study(options);
  std::vector<int> items(16);
  std::iota(items.begin(), items.end(), 0);
  const auto boom = [](const int& i) {
    if (i == 7) throw std::runtime_error("seeded failure on item 7");
    return i * 2;
  };
  try {
    study.map(items, boom);
    FAIL() << "seeded failure did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seeded failure on item 7");
  }
  // The pool survives the failure: a follow-up batch completes normally.
  const std::vector<int> doubled =
      study.map(items, [](const int& i) { return i * 2; });
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], items[i] * 2);
  }
}

TEST(Study, FirstErrorByIndexWins) {
  StudyOptions options;
  options.jobs = 8;
  Study study(options);
  std::vector<int> items(32);
  std::iota(items.begin(), items.end(), 0);
  try {
    study.map(items, [](const int& i) {
      if (i % 5 == 3) {  // items 3, 8, 13, ... all fail
        throw std::runtime_error("fail " + std::to_string(i));
      }
      return i;
    });
    FAIL() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail 3");  // lowest failing index, every time
  }
}

TEST(Study, NestedMapDoesNotDeadlock) {
  // Outer batch wider than the pool, each item mapping an inner batch:
  // progress relies on the calling thread draining work itself.
  StudyOptions options;
  options.jobs = 2;
  Study study(options);
  std::vector<int> outer(8);
  std::iota(outer.begin(), outer.end(), 0);
  const std::vector<int> sums =
      study.map(outer, [&study](const int& o) {
        std::vector<int> inner(4);
        std::iota(inner.begin(), inner.end(), o * 10);
        const std::vector<int> r =
            study.map(inner, [](const int& i) { return i + 1; });
        return std::accumulate(r.begin(), r.end(), 0);
      });
  for (std::size_t o = 0; o < sums.size(); ++o) {
    // sum of {10o+1 .. 10o+4}
    EXPECT_EQ(sums[o], static_cast<int>(o) * 40 + 10);
  }
}

TEST(Study, JobsZeroMeansHardwareConcurrency) {
  StudyOptions options;
  options.jobs = 0;
  Study study(options);
  EXPECT_GE(study.jobs(), 1);
}

// --- metrics & structured reports -------------------------------------------

TEST(Metrics, CollectionDoesNotPerturbReplay) {
  const ReplayContext plain(ring_trace(4, 3), ring_platform(4));
  dimemas::ReplayOptions on;
  on.collect_metrics = true;
  const ReplayContext metered = plain.with_options(on);
  EXPECT_NE(plain.fingerprint(), metered.fingerprint());

  const dimemas::SimResult a = run_scenario(plain);
  const dimemas::SimResult b = run_scenario(metered);
  EXPECT_EQ(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
  // Bit-identical, not merely close: collection must be purely passive.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.des_events, b.des_events);
  ASSERT_EQ(a.rank_stats.size(), b.rank_stats.size());
  for (std::size_t r = 0; r < a.rank_stats.size(); ++r) {
    EXPECT_EQ(a.rank_stats[r].compute_s, b.rank_stats[r].compute_s);
    EXPECT_EQ(a.rank_stats[r].send_blocked_s, b.rank_stats[r].send_blocked_s);
    EXPECT_EQ(a.rank_stats[r].recv_blocked_s, b.rank_stats[r].recv_blocked_s);
    EXPECT_EQ(a.rank_stats[r].wait_blocked_s, b.rank_stats[r].wait_blocked_s);
    EXPECT_EQ(a.rank_stats[r].finish_time, b.rank_stats[r].finish_time);
    EXPECT_EQ(a.rank_stats[r].messages_sent, b.rank_stats[r].messages_sent);
    EXPECT_EQ(a.rank_stats[r].bytes_sent, b.rank_stats[r].bytes_sent);
    EXPECT_EQ(a.rank_stats[r].bytes_received, b.rank_stats[r].bytes_received);
  }
}

TEST(Metrics, AttributionSumsToBlockedStats) {
  dimemas::ReplayOptions on;
  on.collect_metrics = true;
  const ReplayContext context(ring_trace(6, 4), ring_platform(6), on);
  const dimemas::SimResult result = run_scenario(context);
  ASSERT_NE(result.metrics, nullptr);
  ASSERT_EQ(result.metrics->rank_waits.size(), result.rank_stats.size());
  for (std::size_t r = 0; r < result.rank_stats.size(); ++r) {
    const metrics::RankWaitAttribution& w = result.metrics->rank_waits[r];
    EXPECT_NEAR(w.send.total_s(), result.rank_stats[r].send_blocked_s, 1e-9);
    EXPECT_NEAR(w.recv.total_s(), result.rank_stats[r].recv_blocked_s, 1e-9);
    EXPECT_NEAR(w.wait.total_s(), result.rank_stats[r].wait_blocked_s, 1e-9);
  }
}

TEST(Report, ReplayReportCarriesSchemaAndAttribution) {
  dimemas::ReplayOptions on;
  on.collect_metrics = true;
  const ReplayContext context(ring_trace(4, 2), ring_platform(4), on);
  const dimemas::SimResult result = run_scenario(context);
  const std::string json =
      replay_report_json(result, context.platform(), "ring");
  EXPECT_NE(json.find("\"schema\":\"osim.replay_report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"wait_attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"peer_waits\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol\""), std::string::npos);
}

TEST(Report, RunReportIsTheReplayReportWithItsLintBlock) {
  dimemas::ReplayOptions on;
  on.collect_metrics = true;
  dimemas::Platform platform = ring_platform(4);
  platform.eager_threshold_bytes = 1024;  // the lint passes must see it
  const ReplayContext context(ring_trace(4, 2), platform, on);
  ASSERT_TRUE(context.trace().app.empty());
  const dimemas::SimResult result = run_scenario(context);

  lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes = 1024;
  const lint::Report lint_report =
      lint::lint_trace(context.trace(), lint_options);
  const std::string expected =
      replay_report_json(result, platform, "app", &lint_report);
  EXPECT_EQ(run_report_json(context, result, nullptr), expected);
  EXPECT_EQ(run_report_json(context, result, nullptr, /*lint_jobs=*/4),
            expected);

  // Cold and warm through a store: the lint block is cached, not altered.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("osim_run_report_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    store::ScenarioStore store(dir.string());
    EXPECT_EQ(run_report_json(context, result, &store), expected);
    EXPECT_EQ(run_report_json(context, result, &store), expected);
    EXPECT_TRUE(
        store.load_lint(lint_fingerprint(context.trace(), lint_options))
            .has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(Report, StudyReportRecordsScenarios) {
  StudyOptions options;
  options.record_scenarios = true;
  Study study(options);
  const ReplayContext context(ring_trace(2, 2), ring_platform(2));
  const double first = study.makespan(context, "first");
  const double again = study.makespan(context, "again");
  EXPECT_EQ(first, again);
  const std::vector<ScenarioRecord> scenarios = study.scenarios();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].label, "first");
  EXPECT_FALSE(scenarios[0].cache_hit);
  EXPECT_EQ(scenarios[1].label, "again");
  EXPECT_TRUE(scenarios[1].cache_hit);
  EXPECT_EQ(scenarios[1].makespan, scenarios[0].makespan);
  const std::string json = study_report_json(study);
  EXPECT_NE(json.find("\"schema\":\"osim.study_report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"again\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":true"), std::string::npos);
}

// Wall times are measurements: printed at a fixed microsecond precision,
// a record's bytes do not depend on how fast its replay ran.
TEST(Report, StudyReportWallTimesHaveFixedWidth) {
  metrics::JsonWriter fast;
  fast.begin_array().fixed(0.09, 6).end_array();
  metrics::JsonWriter slow;
  slow.begin_array().fixed(0.11, 6).end_array();
  EXPECT_EQ(fast.str(), "[0.090000]");
  EXPECT_EQ(slow.str(), "[0.110000]");

  StudyOptions options;
  options.record_scenarios = true;
  Study study(options);
  const ReplayContext context(ring_trace(4, 3), ring_platform(4));
  study.makespan(context, "miss");
  study.makespan(context, "hit");
  study.makespan(context.with_bandwidth(50.0), "other");
  const std::string json = study_report_json(study);
  std::size_t fields = 0;
  for (std::size_t at = json.find("\"wall_s\":"); at != std::string::npos;
       at = json.find("\"wall_s\":", at + 1)) {
    const std::size_t begin = at + std::string_view("\"wall_s\":").size();
    const std::size_t end = json.find(',', begin);
    const std::string digits = json.substr(begin, end - begin);
    const std::size_t point = digits.find('.');
    ASSERT_NE(point, std::string::npos) << digits;
    EXPECT_EQ(digits.size() - point - 1, 6u) << digits;
    ++fields;
  }
  EXPECT_EQ(fields, 3u) << json;
}

// --- supervision -------------------------------------------------------------

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_pipeline_" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(StudySupervision, OffByDefault) {
  Study study;
  EXPECT_FALSE(study.supervised());
  EXPECT_FALSE(study.interrupted());
  const std::string json = study_report_json(study);
  // The unsupervised report must not grow status fields (bit-identity
  // with pre-supervision reports; perf_identity_test pins the CRC).
  EXPECT_EQ(json.find("\"status\""), std::string::npos);
}

TEST(StudySupervision, ScenarioTimeoutRecordsPartialAndContinues) {
  StudyOptions options;
  options.record_scenarios = true;
  options.scenario_timeout_s = 1e-9;  // expires before the first poll
  Study study(options);
  EXPECT_TRUE(study.supervised());
  study.makespan(ReplayContext(ring_trace(4, 64), ring_platform(4)), "slow");
  // A timeout is a per-scenario outcome: the sweep itself is not
  // interrupted and later scenarios still run.
  EXPECT_FALSE(study.interrupted());
  const std::vector<ScenarioRecord> records = study.scenarios();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, ScenarioStatus::kTimeout);
  EXPECT_FALSE(records[0].cache_hit);
  const std::string json = study_report_json(study);
  EXPECT_NE(json.find("\"status\":\"timeout\""), std::string::npos) << json;
}

TEST(StudySupervision, StopFlagCancelsWithoutReplaying) {
  std::atomic<bool> stop{true};  // already raised: pre-flight must catch it
  StudyOptions options;
  options.record_scenarios = true;
  options.stop_flag = &stop;
  Study study(options);
  study.makespan(ReplayContext(ring_trace(2, 2), ring_platform(2)), "late");
  EXPECT_TRUE(study.interrupted());
  const std::vector<ScenarioRecord> records = study.scenarios();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, ScenarioStatus::kCancelled);
  EXPECT_EQ(records[0].wall_s, 0.0);
  const std::string json = study_report_json(study);
  EXPECT_NE(json.find("\"status\":\"interrupted\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"status\":\"cancelled\""), std::string::npos) << json;
}

TEST(StudySupervision, StudyDeadlineInterruptsTheSweep) {
  StudyOptions options;
  options.record_scenarios = true;
  options.study_deadline_s = 1e-9;
  Study study(options);
  study.makespan(ReplayContext(ring_trace(2, 2), ring_platform(2)), "a");
  study.makespan(ReplayContext(ring_trace(2, 3), ring_platform(2)), "b");
  EXPECT_TRUE(study.interrupted());
  for (const ScenarioRecord& record : study.scenarios()) {
    EXPECT_EQ(record.status, ScenarioStatus::kCancelled);
  }
}

// A killed or interrupted sweep is resumed by rerunning it on the same
// store: the store holds exactly the scenarios that completed, so the
// rerun serves those from the disk tier and replays the rest — including
// a scenario the earlier run stopped at its timeout, which stored nothing.
TEST(StudySupervision, RerunOnTheSameStoreResumes) {
  const std::string dir = fresh_dir("resume");
  const ReplayContext base(ring_trace(4, 3), ring_platform(4));
  std::vector<ReplayContext> contexts;
  for (const double bw : {100.0, 250.0, 500.0}) {
    contexts.push_back(base.with_bandwidth(bw));
  }
  const auto label = [](std::size_t i) { return "bw" + std::to_string(i); };
  std::vector<double> cold;
  std::string cold_report;
  {
    StudyOptions options;
    options.record_scenarios = true;
    Study study(options);
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      cold.push_back(study.makespan(contexts[i], label(i)));
    }
    cold_report = study_report_canonical_json(study);
  }
  // The first run completes two scenarios; the third times out.
  {
    StudyOptions options;
    options.cache_dir = dir;
    Study study(options);
    study.makespan(contexts[0], label(0));
    study.makespan(contexts[1], label(1));
  }
  {
    StudyOptions options;
    options.cache_dir = dir;
    options.record_scenarios = true;
    options.scenario_timeout_s = 1e-9;  // expires before the first poll
    Study study(options);
    study.makespan(contexts[2], label(2));
    ASSERT_EQ(study.scenarios().size(), 1u);
    EXPECT_EQ(study.scenarios()[0].status, ScenarioStatus::kTimeout);
  }

  StudyOptions options;
  options.cache_dir = dir;
  options.record_scenarios = true;
  options.scenario_timeout_s = 3600.0;  // supervised, like a bench rerun
  Study rerun(options);
  std::vector<double> warm;
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    warm.push_back(rerun.makespan(contexts[i], label(i)));
  }
  EXPECT_EQ(rerun.disk_hits(), 2u);
  EXPECT_EQ(rerun.cache_misses(), 1u);  // the timed-out scenario, retried
  for (const ScenarioRecord& record : rerun.scenarios()) {
    EXPECT_EQ(record.status, ScenarioStatus::kOk) << record.label;
    EXPECT_EQ(record.cache_tier,
              record.label == label(2) ? CacheTier::kMiss : CacheTier::kDisk)
        << record.label;
  }
  EXPECT_EQ(warm, cold);
  // The acceptance property at unit scale: the canonical study report of
  // the rerun is byte-identical to an uninterrupted cold run's.
  EXPECT_EQ(study_report_canonical_json(rerun), cold_report);
}

TEST(StudySupervision, WriteBehindQueuesAndRetries) {
  const std::string dir = fresh_dir("write_behind");
  StudyOptions options;
  options.cache_dir = dir;
  Study study(options);
  ASSERT_NE(study.store(), nullptr);
  // Break publication: replace the store's tmp directory with a file so
  // every temp write fails with ENOTDIR.
  fs::remove_all(dir + "/tmp");
  { std::ofstream block(dir + "/tmp", std::ios::binary); }
  const ReplayContext context(ring_trace(2, 2), ring_platform(2));
  const double makespan = study.makespan(context);
  EXPECT_GT(makespan, 0.0);  // the sweep itself is unharmed
  EXPECT_EQ(study.pending_store_writes(), 1u);
  // Heal the store and force a retry: the queued write lands.
  fs::remove(dir + "/tmp");
  fs::create_directories(dir + "/tmp");
  EXPECT_EQ(study.flush_store_writes(), 0u);
  EXPECT_EQ(study.pending_store_writes(), 0u);
  StudyOptions verify_options;
  verify_options.cache_dir = dir;
  Study verify_study(verify_options);
  EXPECT_EQ(verify_study.makespan(context), makespan);
  EXPECT_EQ(verify_study.disk_hits(), 1u);
}

}  // namespace
}  // namespace osim::pipeline
