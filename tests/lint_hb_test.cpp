// Tests for the happens-before engine (lint/hb.hpp) and the passes built
// on it: the communication-race detector, the overlap-hazard advisories,
// the request-lifecycle extensions, the JSON report schema, --jobs
// determinism, and the store-backed lint cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "apps/app.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/matching.hpp"
#include "dimemas/platform.hpp"
#include "lint/deadlock.hpp"
#include "lint/diagnostics.hpp"
#include "lint/hb.hpp"
#include "lint/lint.hpp"
#include "overlap/options.hpp"
#include "overlap/transform.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/scenario.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

using lint::Severity;
using trace::CollectiveKind;
using trace::kAnyRank;
using trace::Trace;
using trace::TraceBuilder;

std::size_t count_code(const lint::Report& report, std::string_view code) {
  std::size_t n = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

const lint::Diagnostic* find_code(const lint::Report& report,
                                  std::string_view code) {
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// --- vector-clock primitives -----------------------------------------------

TEST(HbClocks, BeforeAndConcurrent) {
  const lint::VectorClock a{1, 0, 2};
  const lint::VectorClock b{2, 0, 2};
  const lint::VectorClock c{0, 1, 0};
  EXPECT_TRUE(lint::hb_before(a, b));
  EXPECT_FALSE(lint::hb_before(b, a));
  EXPECT_FALSE(lint::hb_before(a, a));  // equal clocks are not "before"
  EXPECT_TRUE(lint::hb_concurrent(a, c));
  EXPECT_FALSE(lint::hb_concurrent(a, b));
  // Empty clocks (records the machine never executed) are unordered.
  const lint::VectorClock unknown;
  EXPECT_FALSE(lint::hb_before(unknown, a));
  EXPECT_FALSE(lint::hb_before(a, unknown));
  EXPECT_FALSE(lint::hb_concurrent(unknown, a));
  EXPECT_EQ(lint::clock_to_string(a), "[1,0,2]");
}

TEST(HbClocks, MessageEdgeOrdersRecvCompletionAfterSendPost) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100).send(0, 1, 7, 64 * 1024);  // rendezvous-sized
  b.compute(1, 50).recv(1, 0, 7, 64 * 1024);
  const Trace t = std::move(b).build();
  const lint::HbAnalysis hb = lint::analyze_happens_before(t);
  ASSERT_TRUE(hb.converged);
  ASSERT_EQ(hb.matches.size(), 1u);
  EXPECT_EQ(hb.matches[0].src, 0);
  EXPECT_EQ(hb.matches[0].send_record, 1u);
  EXPECT_EQ(hb.matches[0].dst, 1);
  EXPECT_EQ(hb.matches[0].recv_record, 1u);
  // Data cannot arrive before it was sent.
  EXPECT_TRUE(lint::hb_before(hb.post(0, 1), hb.completion(1, 1)));
  // A rendezvous transfer cannot start before the receive is posted.
  EXPECT_TRUE(lint::hb_before(hb.post(1, 1), hb.completion(0, 1)));
  // The two leading compute bursts have no ordering edge at all.
  EXPECT_TRUE(lint::hb_concurrent(hb.post(0, 0), hb.post(1, 0)));
}

TEST(HbClocks, EagerSendCompletesWithoutSynchronizing) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100).send(0, 1, 7, 64);  // well under the eager cutoff
  b.compute(1, 50).recv(1, 0, 7, 64);
  const lint::HbAnalysis hb =
      lint::analyze_happens_before(std::move(b).build());
  ASSERT_TRUE(hb.converged);
  EXPECT_TRUE(lint::hb_before(hb.post(0, 1), hb.completion(1, 1)));
  // Eager sends complete locally: no edge back from the receive post.
  EXPECT_FALSE(lint::hb_before(hb.post(1, 1), hb.completion(0, 1)));
}

TEST(HbClocks, CollectivesOrderAcrossRanks) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 10).global(0, CollectiveKind::kBarrier, 0, 0, 0);
  b.global(1, CollectiveKind::kBarrier, 0, 0, 0).compute(1, 10);
  const lint::HbAnalysis hb =
      lint::analyze_happens_before(std::move(b).build());
  ASSERT_TRUE(hb.converged);
  // Work before the barrier on rank 0 orders work after it on rank 1.
  EXPECT_TRUE(lint::hb_before(hb.post(0, 0), hb.completion(1, 1)));
}

TEST(HbClocks, EpochsOnlyWhereAJoinChangesTheClock) {
  // Rank 1 receives rank 0's second message first: the receive of the
  // first message then learns nothing new and must not start an epoch.
  // Both ranks' barrier completions share the barrier's one snapshot.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 5, 64).send(0, 1, 6, 64);
  b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
  b.recv(1, 0, 6, 64).recv(1, 0, 5, 64);
  b.global(1, CollectiveKind::kBarrier, 0, 0, 0);
  const lint::HbAnalysis hb =
      lint::analyze_happens_before(std::move(b).build());
  ASSERT_TRUE(hb.converged);
  EXPECT_EQ(hb.executed, (std::vector<std::size_t>{3, 3}));
  ASSERT_EQ(hb.snapshots.size(), 3u);  // zero, rank 1's first join, barrier
  ASSERT_EQ(hb.epochs[0].size(), 1u);
  ASSERT_EQ(hb.epochs[1].size(), 2u);
  EXPECT_EQ(hb.epochs[1][0].record, 0u);
  EXPECT_EQ(hb.epochs[0][0].record, 2u);
  EXPECT_EQ(hb.epochs[1][1].record, 2u);
  EXPECT_EQ(hb.epochs[0][0].snapshot, hb.epochs[1][1].snapshot);
  EXPECT_EQ(hb.completion(1, 0), (lint::VectorClock{2, 1}));
  EXPECT_EQ(hb.completion(1, 1), (lint::VectorClock{2, 2}));
  EXPECT_EQ(hb.completion(0, 2), (lint::VectorClock{3, 3}));
  EXPECT_EQ(hb.completion(1, 2), hb.completion(0, 2));
}

TEST(HbClocks, DeadlockLeavesUnexecutedRecordsUnclocked) {
  // Both ranks post a blocking rendezvous receive first: neither send is
  // ever reached, so the machine must stop without inventing clocks.
  TraceBuilder b(2, 1000.0);
  b.recv(0, 1, 0, 64 * 1024).send(0, 1, 0, 64 * 1024);
  b.recv(1, 0, 0, 64 * 1024).send(1, 0, 0, 64 * 1024);
  const lint::HbAnalysis hb =
      lint::analyze_happens_before(std::move(b).build());
  EXPECT_FALSE(hb.converged);
  EXPECT_FALSE(hb.post(0, 0).empty());  // the recv was posted
  EXPECT_TRUE(hb.post(0, 1).empty());   // the send never executed
  EXPECT_TRUE(hb.post(1, 1).empty());
  EXPECT_FALSE(lint::hb_before(hb.post(0, 1), hb.post(1, 1)));
  EXPECT_FALSE(lint::hb_concurrent(hb.post(0, 1), hb.post(1, 1)));
}

// --- race detector ----------------------------------------------------------

Trace wildcard_race_trace() {
  TraceBuilder b(3, 1000.0);
  b.send(0, 2, 7, 64);
  b.send(1, 2, 7, 64);
  b.recv(2, kAnyRank, 7, 64).recv(2, kAnyRank, 7, 64);
  return std::move(b).build();
}

TEST(LintRaces, ConcurrentWildcardReceivesAreFlagged) {
  const lint::Report report = lint::lint_trace(wildcard_race_trace());
  EXPECT_EQ(report.num_errors(), 0u);
  EXPECT_EQ(report.num_warnings(), 2u);
  EXPECT_EQ(count_code(report, "wildcard-race"), 2u);
  const lint::Diagnostic* d = find_code(report, "wildcard-race");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->pass, "races");
  EXPECT_EQ(d->rank, 2);
  EXPECT_EQ(d->record, 0);
  EXPECT_NE(d->message.find("nondeterministic"), std::string::npos);
  EXPECT_NE(d->evidence.find("rival send post"), std::string::npos);
}

TEST(LintRaces, BarrierOrderedWildcardReceivesAreSilent) {
  // The second sender only fires after a barrier the receiver has already
  // passed, so the candidates are ordered, not racing.
  TraceBuilder b(3, 1000.0);
  b.send(0, 2, 7, 64).global(0, CollectiveKind::kBarrier, 0, 0, 0);
  b.global(1, CollectiveKind::kBarrier, 0, 0, 0).send(1, 2, 7, 64);
  b.recv(2, kAnyRank, 7, 64)
      .global(2, CollectiveKind::kBarrier, 0, 0, 0)
      .recv(2, kAnyRank, 7, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(count_code(report, "wildcard-race"), 0u);
}

TEST(LintRaces, SameSourceWildcardReceivesAreSilent) {
  // MPI's non-overtaking rule fixes the order of same-source messages.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 3, 64).send(0, 1, 3, 64);
  b.recv(1, kAnyRank, 3, 64).recv(1, kAnyRank, 3, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(count_code(report, "wildcard-race"), 0u);
}

TEST(LintRaces, BlockingSendReusingInFlightEnvelopeIsFlagged) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 3, 64, 1).send(0, 1, 3, 64).wait(0, {1});
  b.recv(1, 0, 3, 64).recv(1, 0, 3, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_EQ(report.num_errors(), 0u);
  EXPECT_EQ(count_code(report, "buffer-reuse"), 1u);
  const lint::Diagnostic* d = find_code(report, "buffer-reuse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->record, 1);
  EXPECT_NE(d->message.find("record 0 (request 1)"), std::string::npos);
}

TEST(LintRaces, BlockingRecvReusingInFlightEnvelopeIsFlagged) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 9, 64, 1).recv(0, 1, 9, 64).wait(0, {1});
  b.send(1, 0, 9, 64).send(1, 0, 9, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  const lint::Diagnostic* d = find_code(report, "buffer-reuse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->record, 1);
  EXPECT_NE(d->message.find("blocking receive"), std::string::npos);
}

TEST(LintRaces, WaitBeforeReuseIsSilent) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 3, 64, 1).wait(0, {1}).send(0, 1, 3, 64);
  b.recv(1, 0, 3, 64).recv(1, 0, 3, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(count_code(report, "buffer-reuse"), 0u);
}

// --- request lifecycle: wait-before-post ------------------------------------

TEST(LintRequests, WaitBeforePostIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.wait(0, {5}).irecv(0, 1, 0, 64, 5).wait(0, {5});
  b.send(1, 0, 0, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  const lint::Diagnostic* d = find_code(report, "wait-before-post");
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->record, 0);
  EXPECT_NE(d->message.find("posted later at record 1"), std::string::npos);
}

// --- overlap-hazard advisories ----------------------------------------------

TEST(LintOverlap, ZeroWindowIsReportedAtThePostRecord) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 0, 64, 1).wait(0, {1}).compute(0, 500);
  b.compute(1, 200).send(1, 0, 0, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(count_code(report, "zero-window"), 1u);
  const lint::Diagnostic* d = find_code(report, "zero-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);
  EXPECT_EQ(d->pass, "overlap");
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->record, 0);  // anchored at the post, where the fix goes
  const lint::Diagnostic* summary = find_code(report, "overlap-summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->rank, -1);  // whole-trace advisory
  EXPECT_NE(summary->message.find("1 zero-window"), std::string::npos);
}

TEST(LintOverlap, ComputeBetweenPostAndWaitIsNotZeroWindow) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 0, 64, 1).compute(0, 500).wait(0, {1});
  b.compute(1, 200).send(1, 0, 0, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_EQ(count_code(report, "zero-window"), 0u);
  EXPECT_EQ(count_code(report, "postponed-wait"), 0u);
  const lint::Diagnostic* summary = find_code(report, "overlap-summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_NE(summary->message.find("1 with overlap window"),
            std::string::npos);
}

TEST(LintOverlap, WaitRetiringSeveralOverlappedRequestsIsAPostponedChain) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 0, 64, 1).irecv(0, 1, 1, 64, 2).compute(0, 400).wait(0,
                                                                     {1, 2});
  b.send(1, 0, 0, 64).send(1, 0, 1, 64);
  const lint::Report report = lint::lint_trace(std::move(b).build());
  EXPECT_TRUE(report.clean()) << report.render_text();
  const lint::Diagnostic* d = find_code(report, "postponed-wait");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->record, 3);  // the wait that retires the chain
  EXPECT_NE(d->message.find("2 requests"), std::string::npos);
}

// --- JSON schema ------------------------------------------------------------

TEST(LintJson, GoldenReportDocument) {
  lint::Report report;
  report.error("match", 1, 4, "unmatched send");
  lint::Diagnostic race;
  race.severity = Severity::kWarning;
  race.pass = "races";
  race.code = "wildcard-race";
  race.rank = 2;
  race.record = 0;
  race.message = "nondeterministic match";
  race.evidence = "recv post [0,0,1]";
  report.add(race);
  lint::Diagnostic summary;
  summary.severity = Severity::kInfo;
  summary.pass = "overlap";
  summary.code = "overlap-summary";
  summary.rank = -1;
  summary.record = lint::kNoRecord;
  summary.message = "2 immediate operation(s)";
  report.add(summary);

  EXPECT_EQ(
      report.render_json(),
      "{\"schema\":\"osim.lint_report\",\"version\":1,\"clean\":false,"
      "\"errors\":1,\"warnings\":1,\"infos\":1,\"diagnostics\":["
      "{\"severity\":\"error\",\"pass\":\"match\",\"rank\":1,\"record\":4,"
      "\"message\":\"unmatched send\"},"
      "{\"severity\":\"warning\",\"pass\":\"races\","
      "\"code\":\"wildcard-race\",\"rank\":2,\"record\":0,"
      "\"message\":\"nondeterministic match\","
      "\"evidence\":\"recv post [0,0,1]\"},"
      "{\"severity\":\"info\",\"pass\":\"overlap\","
      "\"code\":\"overlap-summary\","
      "\"message\":\"2 immediate operation(s)\"}]}");
}

TEST(LintJson, EmptyReportDocument) {
  const lint::Report report = lint::lint_trace(Trace::make(2, 1000.0));
  EXPECT_EQ(report.render_json(),
            "{\"schema\":\"osim.lint_report\",\"version\":1,\"clean\":true,"
            "\"errors\":0,\"warnings\":0,\"infos\":0,\"diagnostics\":[]}");
}

TEST(LintJson, LiveRunCarriesCodesAndEvidence) {
  const std::string json =
      lint::lint_trace(wildcard_race_trace()).render_json();
  EXPECT_NE(json.find("\"schema\":\"osim.lint_report\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"wildcard-race\""), std::string::npos);
  EXPECT_NE(json.find("\"evidence\":\"recv post ["), std::string::npos);
}

// --- --jobs determinism -----------------------------------------------------

Trace defect_rich_trace() {
  TraceBuilder b(3, 1000.0);
  b.send(0, 2, 7, 64);
  b.send(1, 2, 7, 64);
  b.recv(2, kAnyRank, 7, 64).recv(2, kAnyRank, 7, 64);
  b.isend(0, 1, 3, 64, 9).wait(0, {9});  // zero-window advisory
  b.recv(1, 0, 3, 64);
  b.send(0, 1, 5, 64);
  b.irecv(1, 0, 5, 64, 4);  // leaked request: an error
  return std::move(b).build();
}

TEST(LintJobs, ParallelReportIsBitIdenticalToSerial) {
  const Trace t = defect_rich_trace();
  lint::LintOptions serial;
  serial.jobs = 1;
  const std::string reference = lint::lint_trace(t, serial).render_json();
  const lint::Report check = lint::lint_trace(t, serial);
  EXPECT_GT(check.num_errors(), 0u);
  EXPECT_GT(check.num_warnings(), 0u);
  EXPECT_GT(check.num_infos(), 0u);
  for (const int jobs : {2, 4, 13}) {
    lint::LintOptions parallel = serial;
    parallel.jobs = jobs;
    EXPECT_EQ(lint::lint_trace(t, parallel).render_json(), reference)
        << "jobs=" << jobs;
  }
}

// --- store-backed lint cache ------------------------------------------------

TEST(LintCache, WarmRunIsBitIdenticalToCold) {
  const std::string dir = ::testing::TempDir() + "/osim_lint_cache";
  std::filesystem::remove_all(dir);
  store::ScenarioStore store(dir);
  const Trace t = wildcard_race_trace();
  const lint::LintOptions options;

  bool hit = true;
  const lint::Report cold =
      pipeline::lint_with_cache(t, options, &store, &hit);
  EXPECT_FALSE(hit);
  const lint::Report warm =
      pipeline::lint_with_cache(t, options, &store, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(warm.render_json(), cold.render_json());
  EXPECT_EQ(store.hits(), 1u);

  // The lint object is a first-class store citizen: verify() decodes it
  // and gc() keeps it.
  EXPECT_TRUE(store.verify().clean());
  const store::GcReport gc = store.gc(1u << 30);
  EXPECT_EQ(gc.objects_removed, 0u);
  EXPECT_EQ(gc.objects_kept, 1u);
}

TEST(LintCache, KeyCoversAnalysisInputsButNotJobs) {
  const Trace t = wildcard_race_trace();
  const lint::LintOptions base;
  lint::LintOptions other_threshold = base;
  other_threshold.eager_threshold_bytes = base.eager_threshold_bytes + 1;
  EXPECT_FALSE(pipeline::lint_fingerprint(t, base) ==
               pipeline::lint_fingerprint(t, other_threshold));
  lint::LintOptions more_jobs = base;
  more_jobs.jobs = 8;  // execution detail, not an analysis input
  EXPECT_TRUE(pipeline::lint_fingerprint(t, base) ==
              pipeline::lint_fingerprint(t, more_jobs));
}

// --- golden zero-window counts on the bundled application -------------------

TEST(LintGolden, NasCgZeroWindowCountsArePinned) {
  const apps::MiniApp* app = apps::find_app("nas_cg");
  ASSERT_NE(app, nullptr);
  apps::AppConfig config;
  config.ranks = 4;
  config.iterations = 2;
  const tracer::TracedRun traced = apps::trace_app(*app, config);
  overlap::OverlapOptions real_options;
  real_options.chunks = 4;
  overlap::OverlapOptions ideal_options = real_options;
  ideal_options.pattern = overlap::PatternMode::kIdeal;

  // The original trace waits every pre-posted receive with no compute in
  // between: the anti-pattern the overlap transformation removes.
  const lint::Report original =
      lint::lint_trace(overlap::lower_original(traced.annotated));
  EXPECT_TRUE(original.clean()) << original.render_text();
  EXPECT_EQ(count_code(original, "zero-window"), 12u);
  EXPECT_EQ(count_code(original, "postponed-wait"), 0u);
  EXPECT_EQ(count_code(original, "overlap-summary"), 1u);

  const lint::Report ideal =
      lint::lint_trace(overlap::transform(traced.annotated, ideal_options));
  EXPECT_TRUE(ideal.clean()) << ideal.render_text();
  EXPECT_EQ(count_code(ideal, "zero-window"), 28u);
  EXPECT_EQ(count_code(ideal, "postponed-wait"), 12u);

  const lint::Report real =
      lint::lint_trace(overlap::transform(traced.annotated, real_options));
  EXPECT_TRUE(real.clean()) << real.render_text();
  EXPECT_EQ(count_code(real, "zero-window"), 16u);
  EXPECT_EQ(count_code(real, "postponed-wait"), 12u);
}

// --- differential test against the dense-clock machines ---------------------

// The two abstract machines the single epoch-based machine replaced,
// verbatim: dense_hb::ClockedMachine stamped two dense vector clocks on
// every record, dense_deadlock::AbstractMachine ran the same fixpoint
// without clocks and reported the stuck set. Only the analysis struct the
// clocked machine fills is redeclared here, in its old dense shape, and
// the clock-order helper behind hb_before is left out.
namespace dense_hb {

using lint::HbMatch;
using lint::VectorClock;

struct HbAnalysis {
  std::int32_t num_ranks = 0;
  bool converged = false;
  std::vector<std::vector<VectorClock>> post_clocks;
  std::vector<std::vector<VectorClock>> completion_clocks;
  std::vector<HbMatch> matches;
};

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::GlobalOp;
using trace::kAnyRank;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

void join_into(VectorClock& dst, const VectorClock& src) {
  for (std::size_t i = 0; i < dst.size() && i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

struct PendingRecv;

struct PendingSend {
  SendEnvelope env;
  bool rendezvous = false;
  bool matched = false;
  std::size_t record = 0;
  VectorClock post;
  const PendingRecv* partner = nullptr;
};

struct PendingRecv {
  RecvEnvelope env;
  bool matched = false;
  std::size_t record = 0;
  VectorClock post;
  const PendingSend* partner = nullptr;
};

struct ReqEntry {
  PendingSend* send = nullptr;  // isend: complete when eager or matched
  PendingRecv* recv = nullptr;  // irecv: complete when matched
  bool complete() const {
    if (send != nullptr) return !send->rendezvous || send->matched;
    if (recv != nullptr) return recv->matched;
    return true;
  }
};

enum class BlockKind { kNone, kSend, kRecv, kWait, kCollective };

struct RankMachine {
  std::size_t pc = 0;
  bool finished = false;
  VectorClock clock;
  BlockKind block = BlockKind::kNone;
  std::size_t block_record = 0;
  PendingSend* blocked_send = nullptr;
  PendingRecv* blocked_recv = nullptr;
  std::vector<ReqId> wait_pending;      // kWait: not-yet-complete requests
  std::vector<ReqId> wait_all;          // kWait: the full request list
  std::int64_t coll_ordinal = 0;        // kCollective: my arrival ordinal
  std::int64_t colls_arrived = 0;       // collectives this rank reached
  std::map<ReqId, ReqEntry> requests;
};

/// The deadlock pass's abstract machine (see deadlock.cpp) with a vector
/// clock threaded through every state transition. Matching order, blocking
/// conditions and the fixed-point schedule are identical, so the two passes
/// agree on which trace executions exist.
class ClockedMachine {
 public:
  ClockedMachine(const trace::Trace& trace, std::uint64_t eager_threshold)
      : trace_(trace), eager_threshold_(eager_threshold) {
    const std::size_t n = trace.ranks.size();
    machines_.resize(n);
    unmatched_sends_.resize(n);
    unmatched_recvs_.resize(n);
    coll_arrivals_.resize(n);
    analysis_.num_ranks = trace.num_ranks;
    analysis_.post_clocks.resize(n);
    analysis_.completion_clocks.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      machines_[r].clock.assign(n, 0);
      analysis_.post_clocks[r].resize(trace.ranks[r].size());
      analysis_.completion_clocks[r].resize(trace.ranks[r].size());
    }
  }

  HbAnalysis run() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < trace_.num_ranks; ++r) {
        if (advance(r)) progress = true;
      }
    }
    analysis_.converged =
        std::all_of(machines_.begin(), machines_.end(),
                    [](const RankMachine& m) { return m.finished; });
    for (const PendingSend& send : sends_pool_) {
      if (!send.matched || send.partner == nullptr) continue;
      analysis_.matches.push_back(HbMatch{send.env.src, send.record,
                                          send.env.dst,
                                          send.partner->record});
    }
    return std::move(analysis_);
  }

 private:
  RankMachine& machine(Rank r) {
    return machines_[static_cast<std::size_t>(r)];
  }
  const std::vector<Record>& stream(Rank r) const {
    return trace_.ranks[static_cast<std::size_t>(r)];
  }

  bool in_range(Rank r) const { return r >= 0 && r < trace_.num_ranks; }

  bool block_resolved(const RankMachine& m) const {
    switch (m.block) {
      case BlockKind::kNone:
        return true;
      case BlockKind::kSend:
        return m.blocked_send->matched;
      case BlockKind::kRecv:
        return m.blocked_recv->matched;
      case BlockKind::kWait:
        return std::all_of(m.wait_pending.begin(), m.wait_pending.end(),
                           [&](ReqId req) {
                             const auto it = m.requests.find(req);
                             return it == m.requests.end() ||
                                    it->second.complete();
                           });
      case BlockKind::kCollective:
        return std::all_of(machines_.begin(), machines_.end(),
                           [&](const RankMachine& other) {
                             return other.colls_arrived > m.coll_ordinal;
                           });
    }
    OSIM_UNREACHABLE("bad block kind");
  }

  /// Applies the completion joins of the resolved blocking record and
  /// timestamps it.
  void resolve_block(Rank r, RankMachine& m) {
    switch (m.block) {
      case BlockKind::kSend:
        if (m.blocked_send->partner != nullptr) {
          join_into(m.clock, m.blocked_send->partner->post);
        }
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->partner != nullptr) {
          join_into(m.clock, m.blocked_recv->partner->post);
        }
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_all) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end()) continue;
          const ReqEntry& entry = it->second;
          if (entry.recv != nullptr && entry.recv->partner != nullptr) {
            join_into(m.clock, entry.recv->partner->post);
          } else if (entry.send != nullptr && entry.send->rendezvous &&
                     entry.send->partner != nullptr) {
            join_into(m.clock, entry.send->partner->post);
          }
          // Eager isend: completes locally, no synchronization edge.
        }
        break;
      case BlockKind::kCollective: {
        const std::size_t k = static_cast<std::size_t>(m.coll_ordinal);
        for (const std::vector<VectorClock>& arrivals : coll_arrivals_) {
          if (k < arrivals.size()) join_into(m.clock, arrivals[k]);
        }
        break;
      }
      case BlockKind::kNone:
        break;
    }
    analysis_.completion_clocks[static_cast<std::size_t>(r)][m.block_record] =
        m.clock;
    m.block = BlockKind::kNone;
  }

  bool advance(Rank r) {
    RankMachine& m = machine(r);
    bool progressed = false;
    while (!m.finished) {
      if (m.block != BlockKind::kNone) {
        if (!block_resolved(m)) return progressed;
        resolve_block(r, m);
        progressed = true;
      }
      const auto& recs = stream(r);
      if (m.pc >= recs.size()) {
        m.finished = true;
        progressed = true;
        break;
      }
      const std::size_t i = m.pc++;
      progressed = true;
      execute(r, m, i, recs[i]);
    }
    return progressed;
  }

  void execute(Rank r, RankMachine& m, std::size_t i, const Record& rec) {
    const std::size_t idx = static_cast<std::size_t>(r);
    ++m.clock[idx];  // program-order tick: every record gets a unique clock
    analysis_.post_clocks[idx][i] = m.clock;
    // Until a blocking condition says otherwise, the record completes at
    // its post clock.
    analysis_.completion_clocks[idx][i] = m.clock;

    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!in_range(send->dest) || send->dest == r) return;  // match pass
      sends_pool_.push_back(PendingSend{
          SendEnvelope{r, send->dest, send->tag, send->bytes},
          send->synchronous || send->bytes > eager_threshold_, false, i,
          m.clock, nullptr});
      PendingSend* ps = &sends_pool_.back();
      match_send(ps);
      if (send->immediate) {
        if (send->request != trace::kNoRequest) {
          m.requests[send->request] = ReqEntry{ps, nullptr};
        }
        return;
      }
      if (ps->rendezvous) {
        m.block = BlockKind::kSend;
        m.block_record = i;
        m.blocked_send = ps;  // resolved (maybe immediately) in advance()
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if ((recv->src != kAnyRank && !in_range(recv->src)) ||
          recv->src == r) {
        return;  // reported by the match pass
      }
      recvs_pool_.push_back(PendingRecv{
          RecvEnvelope{recv->src, r, recv->tag, recv->bytes}, false, i,
          m.clock, nullptr});
      PendingRecv* pr = &recvs_pool_.back();
      match_recv(pr);
      if (recv->immediate) {
        if (recv->request != trace::kNoRequest) {
          m.requests[recv->request] = ReqEntry{nullptr, pr};
        }
        return;
      }
      m.block = BlockKind::kRecv;
      m.block_record = i;
      m.blocked_recv = pr;
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      std::vector<ReqId> pending;
      for (const ReqId req : wait->requests) {
        const auto it = m.requests.find(req);
        // Unknown requests are the requests pass's finding; treat them as
        // complete so one defect does not cascade.
        if (it != m.requests.end() && !it->second.complete()) {
          pending.push_back(req);
        }
      }
      m.block = BlockKind::kWait;
      m.block_record = i;
      m.wait_pending = std::move(pending);
      m.wait_all = wait->requests;
    } else if (std::get_if<GlobalOp>(&rec) != nullptr) {
      coll_arrivals_[idx].push_back(m.clock);
      m.coll_ordinal = m.colls_arrived++;
      m.block = BlockKind::kCollective;
      m.block_record = i;
    }
    // CpuBurst: no dependency.
  }

  void match_send(PendingSend* send) {
    auto& recvs = unmatched_recvs_[static_cast<std::size_t>(send->env.dst)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (envelope_matches((*it)->env, send->env)) {
        (*it)->matched = true;
        (*it)->partner = send;
        send->matched = true;
        send->partner = *it;
        recvs.erase(it);
        return;
      }
    }
    unmatched_sends_[static_cast<std::size_t>(send->env.dst)].push_back(send);
  }

  void match_recv(PendingRecv* recv) {
    auto& sends = unmatched_sends_[static_cast<std::size_t>(recv->env.dst)];
    for (auto it = sends.begin(); it != sends.end(); ++it) {
      if (envelope_matches(recv->env, (*it)->env)) {
        (*it)->matched = true;
        (*it)->partner = recv;
        recv->matched = true;
        recv->partner = *it;
        sends.erase(it);
        return;
      }
    }
    unmatched_recvs_[static_cast<std::size_t>(recv->env.dst)].push_back(recv);
  }

  const trace::Trace& trace_;
  const std::uint64_t eager_threshold_;
  std::vector<RankMachine> machines_;
  // Stable-address pools; inbox deques and partner pointers point into them.
  std::deque<PendingSend> sends_pool_;
  std::deque<PendingRecv> recvs_pool_;
  std::vector<std::deque<PendingSend*>> unmatched_sends_;
  std::vector<std::deque<PendingRecv*>> unmatched_recvs_;
  std::vector<std::vector<VectorClock>> coll_arrivals_;  // per rank, ordinal
  HbAnalysis analysis_;
};

HbAnalysis analyze(const Trace& trace) {
  return ClockedMachine(trace, lint::kDefaultEagerThresholdBytes).run();
}

}  // namespace dense_hb

namespace dense_deadlock {

using lint::kNoRecord;
using lint::Report;

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::CpuBurst;
using trace::GlobalOp;
using trace::kAnyRank;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

constexpr const char* kPass = "deadlock";

struct PendingSend {
  SendEnvelope env;
  bool rendezvous = false;
  bool matched = false;
};

struct PendingRecv {
  RecvEnvelope env;
  bool matched = false;
};

/// What an immediate request resolves to in the untimed model.
struct ReqEntry {
  const PendingSend* send = nullptr;  // isend: complete when eager or matched
  const PendingRecv* recv = nullptr;  // irecv: complete when matched
  bool complete() const {
    if (send != nullptr) return !send->rendezvous || send->matched;
    if (recv != nullptr) return recv->matched;
    return true;
  }
};

enum class BlockKind { kNone, kSend, kRecv, kWait, kCollective };

struct RankMachine {
  std::size_t pc = 0;
  bool finished = false;
  BlockKind block = BlockKind::kNone;
  std::size_t block_record = 0;
  const PendingSend* blocked_send = nullptr;
  const PendingRecv* blocked_recv = nullptr;
  std::vector<ReqId> wait_pending;      // kWait: not-yet-complete requests
  std::int64_t coll_ordinal = 0;        // kCollective: my arrival ordinal
  std::int64_t colls_arrived = 0;       // collectives this rank reached
  std::map<ReqId, ReqEntry> requests;
};

class AbstractMachine {
 public:
  AbstractMachine(const trace::Trace& trace, std::uint64_t eager_threshold)
      : trace_(trace), eager_threshold_(eager_threshold) {
    machines_.resize(trace.ranks.size());
    unmatched_sends_.resize(trace.ranks.size());
    unmatched_recvs_.resize(trace.ranks.size());
  }

  void run_to_fixpoint() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < trace_.num_ranks; ++r) {
        if (advance(r)) progress = true;
      }
    }
  }

  void report_stuck(Report& report) const;

 private:
  RankMachine& machine(Rank r) {
    return machines_[static_cast<std::size_t>(r)];
  }
  const std::vector<Record>& stream(Rank r) const {
    return trace_.ranks[static_cast<std::size_t>(r)];
  }

  bool in_range(Rank r) const { return r >= 0 && r < trace_.num_ranks; }

  bool block_resolved(const RankMachine& m) const {
    switch (m.block) {
      case BlockKind::kNone:
        return true;
      case BlockKind::kSend:
        return m.blocked_send->matched;
      case BlockKind::kRecv:
        return m.blocked_recv->matched;
      case BlockKind::kWait:
        return std::all_of(m.wait_pending.begin(), m.wait_pending.end(),
                           [&](ReqId req) {
                             const auto it = m.requests.find(req);
                             return it == m.requests.end() ||
                                    it->second.complete();
                           });
      case BlockKind::kCollective:
        return std::all_of(machines_.begin(), machines_.end(),
                           [&](const RankMachine& other) {
                             return other.colls_arrived > m.coll_ordinal;
                           });
    }
    OSIM_UNREACHABLE("bad block kind");
  }

  /// Executes as many records of rank `r` as possible; true on progress.
  bool advance(Rank r) {
    RankMachine& m = machine(r);
    bool progressed = false;
    while (!m.finished) {
      if (m.block != BlockKind::kNone) {
        if (!block_resolved(m)) return progressed;
        m.block = BlockKind::kNone;
        progressed = true;
      }
      const auto& recs = stream(r);
      if (m.pc >= recs.size()) {
        m.finished = true;
        progressed = true;
        break;
      }
      const std::size_t i = m.pc++;
      progressed = true;
      execute(r, m, i, recs[i]);
    }
    return progressed;
  }

  void execute(Rank r, RankMachine& m, std::size_t i, const Record& rec) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!in_range(send->dest) || send->dest == r) return;  // match pass
      sends_pool_.push_back(PendingSend{
          SendEnvelope{r, send->dest, send->tag, send->bytes},
          send->synchronous || send->bytes > eager_threshold_, false});
      PendingSend* ps = &sends_pool_.back();
      match_send(ps);
      if (send->immediate) {
        if (send->request != trace::kNoRequest) {
          m.requests[send->request] = ReqEntry{ps, nullptr};
        }
        return;
      }
      if (ps->rendezvous && !ps->matched) {
        m.block = BlockKind::kSend;
        m.block_record = i;
        m.blocked_send = ps;
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if ((recv->src != kAnyRank && !in_range(recv->src)) ||
          recv->src == r) {
        return;  // reported by the match pass
      }
      recvs_pool_.push_back(PendingRecv{
          RecvEnvelope{recv->src, r, recv->tag, recv->bytes}, false});
      PendingRecv* pr = &recvs_pool_.back();
      match_recv(pr);
      if (recv->immediate) {
        if (recv->request != trace::kNoRequest) {
          m.requests[recv->request] = ReqEntry{nullptr, pr};
        }
        return;
      }
      if (!pr->matched) {
        m.block = BlockKind::kRecv;
        m.block_record = i;
        m.blocked_recv = pr;
      }
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      std::vector<ReqId> pending;
      for (const ReqId req : wait->requests) {
        const auto it = m.requests.find(req);
        // Unknown requests are the requests pass's finding; treat them as
        // complete so one defect does not cascade into phantom deadlocks.
        if (it != m.requests.end() && !it->second.complete()) {
          pending.push_back(req);
        }
      }
      if (!pending.empty()) {
        m.block = BlockKind::kWait;
        m.block_record = i;
        m.wait_pending = std::move(pending);
      }
    } else if (std::get_if<GlobalOp>(&rec) != nullptr) {
      m.coll_ordinal = m.colls_arrived++;
      m.block = BlockKind::kCollective;
      m.block_record = i;
    }
    // CpuBurst: no dependency.
  }

  void match_send(PendingSend* send) {
    auto& recvs = unmatched_recvs_[static_cast<std::size_t>(send->env.dst)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (envelope_matches((*it)->env, send->env)) {
        (*it)->matched = true;
        send->matched = true;
        recvs.erase(it);
        return;
      }
    }
    unmatched_sends_[static_cast<std::size_t>(send->env.dst)].push_back(send);
  }

  void match_recv(PendingRecv* recv) {
    auto& sends = unmatched_sends_[static_cast<std::size_t>(recv->env.dst)];
    for (auto it = sends.begin(); it != sends.end(); ++it) {
      if (envelope_matches(recv->env, (*it)->env)) {
        (*it)->matched = true;
        recv->matched = true;
        sends.erase(it);
        return;
      }
    }
    unmatched_recvs_[static_cast<std::size_t>(recv->env.dst)].push_back(recv);
  }

  /// Ranks this stuck rank is waiting on (blame edges), and a short
  /// description of what it needs from them.
  std::vector<Rank> blame_targets(Rank r, const RankMachine& m,
                                  std::string* what) const;

  const trace::Trace& trace_;
  const std::uint64_t eager_threshold_;
  std::vector<RankMachine> machines_;
  // Stable-address pools; inbox deques point into them.
  std::deque<PendingSend> sends_pool_;
  std::deque<PendingRecv> recvs_pool_;
  std::vector<std::deque<PendingSend*>> unmatched_sends_;
  std::vector<std::deque<PendingRecv*>> unmatched_recvs_;
};

std::vector<Rank> AbstractMachine::blame_targets(Rank r, const RankMachine& m,
                                                 std::string* what) const {
  std::set<Rank> targets;
  switch (m.block) {
    case BlockKind::kSend:
      targets.insert(m.blocked_send->env.dst);
      *what = strprintf("a matching recv on rank %d",
                        m.blocked_send->env.dst);
      break;
    case BlockKind::kRecv:
      if (m.blocked_recv->env.src != kAnyRank) {
        targets.insert(m.blocked_recv->env.src);
        *what = strprintf("a matching send from rank %d",
                          m.blocked_recv->env.src);
      } else {
        for (Rank o = 0; o < trace_.num_ranks; ++o) {
          if (o != r && !machines_[static_cast<std::size_t>(o)].finished) {
            targets.insert(o);
          }
        }
        *what = "a matching send from ANY_SOURCE";
      }
      break;
    case BlockKind::kWait:
      for (const ReqId req : m.wait_pending) {
        const auto it = m.requests.find(req);
        if (it == m.requests.end() || it->second.complete()) continue;
        if (it->second.send != nullptr) {
          targets.insert(it->second.send->env.dst);
        } else if (it->second.recv != nullptr) {
          if (it->second.recv->env.src != kAnyRank) {
            targets.insert(it->second.recv->env.src);
          } else {
            for (Rank o = 0; o < trace_.num_ranks; ++o) {
              if (o != r &&
                  !machines_[static_cast<std::size_t>(o)].finished) {
                targets.insert(o);
              }
            }
          }
        }
      }
      *what = strprintf("%zu incomplete request(s)", m.wait_pending.size());
      break;
    case BlockKind::kCollective:
      for (Rank o = 0; o < trace_.num_ranks; ++o) {
        if (o != r && machines_[static_cast<std::size_t>(o)].colls_arrived <=
                          m.coll_ordinal) {
          targets.insert(o);
        }
      }
      *what = strprintf("collective #%lld arrival",
                        static_cast<long long>(m.coll_ordinal));
      break;
    case BlockKind::kNone:
      break;
  }
  return std::vector<Rank>(targets.begin(), targets.end());
}

void AbstractMachine::report_stuck(Report& report) const {
  std::vector<Rank> stuck;
  for (Rank r = 0; r < trace_.num_ranks; ++r) {
    if (!machines_[static_cast<std::size_t>(r)].finished) stuck.push_back(r);
  }
  if (stuck.empty()) return;

  // Blame edges restricted to stuck ranks (a finished rank cannot be part
  // of a cycle), plus per-rank description for the chain text.
  std::map<Rank, std::vector<Rank>> edges;
  std::map<Rank, std::string> needs;
  const std::set<Rank> stuck_set(stuck.begin(), stuck.end());
  for (const Rank r : stuck) {
    const RankMachine& m = machines_[static_cast<std::size_t>(r)];
    std::string what;
    std::vector<Rank> targets = blame_targets(r, m, &what);
    needs[r] = what;
    std::vector<Rank>& out = edges[r];
    for (const Rank t : targets) {
      if (stuck_set.count(t) > 0) out.push_back(t);
    }
  }

  // Strongly connected components (iterative Tarjan) over stuck ranks.
  std::map<Rank, int> index, lowlink, component;
  std::vector<Rank> scc_stack;
  std::set<Rank> on_stack;
  int next_index = 0, next_component = 0;
  struct Frame {
    Rank rank;
    std::size_t edge = 0;
  };
  for (const Rank root : stuck) {
    if (index.count(root) > 0) continue;
    std::vector<Frame> call_stack{{root}};
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack.insert(root);
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::vector<Rank>& out = edges[frame.rank];
      if (frame.edge < out.size()) {
        const Rank next = out[frame.edge++];
        if (index.count(next) == 0) {
          index[next] = lowlink[next] = next_index++;
          scc_stack.push_back(next);
          on_stack.insert(next);
          call_stack.push_back(Frame{next});
        } else if (on_stack.count(next) > 0) {
          lowlink[frame.rank] = std::min(lowlink[frame.rank], index[next]);
        }
      } else {
        if (lowlink[frame.rank] == index[frame.rank]) {
          while (true) {
            const Rank popped = scc_stack.back();
            scc_stack.pop_back();
            on_stack.erase(popped);
            component[popped] = next_component;
            if (popped == frame.rank) break;
          }
          ++next_component;
        }
        const Rank done = frame.rank;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          lowlink[call_stack.back().rank] =
              std::min(lowlink[call_stack.back().rank], lowlink[done]);
        }
      }
    }
  }

  std::map<int, std::vector<Rank>> members;
  for (const Rank r : stuck) members[component[r]].push_back(r);

  std::set<Rank> in_cycle;
  for (const auto& [comp, ranks] : members) {
    if (ranks.size() < 2) continue;  // no self-edges, so singletons: acyclic
    for (const Rank r : ranks) in_cycle.insert(r);
    std::vector<std::string> chain;
    for (const Rank r : ranks) {
      const RankMachine& m = machines_[static_cast<std::size_t>(r)];
      std::vector<std::string> waits;
      for (const Rank t : edges[r]) {
        waits.push_back(strprintf("%d", t));
      }
      chain.push_back(strprintf(
          "rank %d blocked at record %zu [%s] needs %s (waits on rank %s)",
          r, m.block_record,
          trace::to_string(stream(r)[m.block_record]).c_str(),
          needs.at(r).c_str(), join(waits, ", rank ").c_str()));
    }
    std::vector<std::string> rank_names;
    for (const Rank r : ranks) rank_names.push_back(strprintf("%d", r));
    report.error(kPass, -1, kNoRecord,
                 strprintf("deadlock cycle among ranks %s: %s",
                           join(rank_names, ", ").c_str(),
                           join(chain, "; ").c_str()));
  }

  for (const Rank r : stuck) {
    if (in_cycle.count(r) > 0) continue;
    const RankMachine& m = machines_[static_cast<std::size_t>(r)];
    report.error(
        kPass, r, static_cast<std::ptrdiff_t>(m.block_record),
        strprintf("rank starves: blocked at [%s] needing %s that no rank "
                  "ever provides",
                  trace::to_string(stream(r)[m.block_record]).c_str(),
                  needs.at(r).c_str()));
  }
}


Report check(const Trace& trace) {
  Report report;
  AbstractMachine machine(trace, lint::kDefaultEagerThresholdBytes);
  machine.run_to_fixpoint();
  machine.report_stuck(report);
  return report;
}

}  // namespace dense_deadlock

/// Faults random_trace() can inject; kNone traces mostly converge.
enum class Fault { kNone, kMissingCollective, kCycle, kStarvation,
                   kTruncated };

/// A seeded random trace for the differential test. Point-to-point pairs
/// are emitted in one global order, so without a fault most traces run to
/// completion; wildcard sources and tags can still steal a message meant
/// for another pair and strand a receive. The mix: 2-48 ranks, eager and
/// rendezvous sizes, synchronous sends, blocking and immediate operations
/// (immediates waited later in random batches, a few never), waits on
/// unknown requests, compute, and collectives. `fault` adds a collective
/// one rank skips, a send-send cycle of rendezvous messages, a receive
/// nobody sends to, or cuts a few rank streams short the way salvage
/// recovery of a damaged binary trace does.
Trace random_trace(std::mt19937_64& rng, Fault fault) {
  const auto n = static_cast<trace::Rank>(2 + rng() % 47);
  const auto pick = [&rng](std::uint64_t k) { return rng() % k; };
  const auto chance = [&pick](std::uint64_t pct) { return pick(100) < pct; };
  const auto any_rank = [&] { return static_cast<trace::Rank>(pick(n)); };
  const auto size = [&] {
    return chance(50) ? 1 + pick(lint::kDefaultEagerThresholdBytes)
                      : lint::kDefaultEagerThresholdBytes + 1 + pick(1 << 17);
  };
  Trace t = Trace::make(n, 1000.0);
  const auto stream = [&t](trace::Rank r) -> std::vector<trace::Record>& {
    return t.ranks[static_cast<std::size_t>(r)];
  };
  std::vector<std::vector<trace::ReqId>> open(static_cast<std::size_t>(n));
  trace::ReqId next_request = 0;
  std::int64_t sequence = 0;
  const auto collective = [&](trace::Rank skip) {
    for (trace::Rank r = 0; r < n; ++r) {
      if (r == skip) continue;
      stream(r).push_back(trace::GlobalOp{CollectiveKind::kAllreduce, 0,
                                          64, sequence});
    }
    ++sequence;
  };

  const std::size_t steps = 10 + pick(6 * static_cast<std::uint64_t>(n));
  const std::size_t fault_step = pick(steps);
  const trace::Tag tags = 1 + static_cast<trace::Tag>(pick(3));
  for (std::size_t step = 0; step < steps; ++step) {
    if (step == fault_step) {
      const trace::Rank a = any_rank();
      const trace::Rank b = (a + 1 + static_cast<trace::Rank>(pick(n - 1))) % n;
      const std::uint64_t big = 2 * lint::kDefaultEagerThresholdBytes;
      switch (fault) {
        case Fault::kMissingCollective:
          collective(any_rank());
          break;
        case Fault::kCycle:
          stream(a).push_back(trace::Send{b, 77, big});
          stream(b).push_back(trace::Send{a, 77, big});
          stream(a).push_back(trace::Recv{b, 77, big});
          stream(b).push_back(trace::Recv{a, 77, big});
          break;
        case Fault::kStarvation:
          stream(a).push_back(trace::Recv{b, 99, 8});
          break;
        case Fault::kNone:
        case Fault::kTruncated:
          break;
      }
    }
    const std::uint64_t kind = pick(100);
    if (kind < 55) {
      const trace::Rank src = any_rank();
      const trace::Rank dst =
          (src + 1 + static_cast<trace::Rank>(pick(n - 1))) % n;
      const trace::Tag tag = static_cast<trace::Tag>(pick(tags));
      const std::uint64_t bytes = size();
      trace::Send send{dst, tag, bytes};
      send.synchronous = chance(10);
      if (chance(40)) {
        send.immediate = true;
        send.request = next_request++;
        open[static_cast<std::size_t>(src)].push_back(send.request);
      }
      stream(src).push_back(send);
      trace::Recv recv{chance(25) ? trace::kAnyRank : src,
                       chance(10) ? trace::kAnyTag : tag, bytes};
      if (chance(40)) {
        recv.immediate = true;
        recv.request = next_request++;
        open[static_cast<std::size_t>(dst)].push_back(recv.request);
      }
      stream(dst).push_back(recv);
    } else if (kind < 75) {
      stream(any_rank()).push_back(trace::CpuBurst{1 + pick(1000)});
    } else if (kind < 96) {
      const trace::Rank r = any_rank();
      std::vector<trace::ReqId>& pending = open[static_cast<std::size_t>(r)];
      trace::Wait wait;
      while (!pending.empty() && (wait.requests.empty() || chance(60))) {
        const std::size_t k = pick(pending.size());
        wait.requests.push_back(pending[k]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      }
      if (wait.requests.empty() || chance(5)) {
        wait.requests.push_back(1'000'000 + next_request++);  // unknown
      }
      stream(r).push_back(std::move(wait));
    } else {
      collective(trace::kAnyRank);
    }
  }
  for (trace::Rank r = 0; r < n; ++r) {
    std::vector<trace::ReqId>& pending = open[static_cast<std::size_t>(r)];
    if (!pending.empty() && chance(90)) {
      stream(r).push_back(trace::Wait{pending});
    }
  }
  if (fault == Fault::kTruncated) {
    for (std::uint64_t cuts = 1 + pick(3); cuts > 0; --cuts) {
      std::vector<trace::Record>& s = stream(any_rank());
      s.resize(pick(s.size() + 1));
    }
  }
  return t;
}

TEST(HbDifferential, MatchesDenseMachinesOnRandomTraces) {
  std::mt19937_64 rng(15);
  constexpr Fault kFaults[] = {Fault::kNone, Fault::kMissingCollective,
                               Fault::kCycle, Fault::kStarvation,
                               Fault::kTruncated};
  std::size_t converged = 0, stuck = 0, cycles = 0, wildcard_matches = 0,
              collectives = 0, records = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const Fault fault = kFaults[trial % 5];
    const Trace t = random_trace(rng, fault);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " ranks "
                                    << t.num_ranks << " fault "
                                    << static_cast<int>(fault));
    const lint::HbAnalysis got = lint::analyze_happens_before(t);
    const dense_hb::HbAnalysis want = dense_hb::analyze(t);
    ASSERT_EQ(got.converged, want.converged);
    ASSERT_EQ(got.stuck.empty(), want.converged);
    for (trace::Rank r = 0; r < t.num_ranks; ++r) {
      const auto idx = static_cast<std::size_t>(r);
      for (std::size_t i = 0; i < t.ranks[idx].size(); ++i) {
        ASSERT_EQ(got.post(r, i), want.post_clocks[idx][i])
            << "post rank " << r << " record " << i;
        ASSERT_EQ(got.completion(r, i), want.completion_clocks[idx][i])
            << "completion rank " << r << " record " << i;
        if (std::holds_alternative<trace::GlobalOp>(t.ranks[idx][i])) {
          ++collectives;
        }
      }
      records += t.ranks[idx].size();
    }
    ASSERT_EQ(got.matches.size(), want.matches.size());
    for (std::size_t k = 0; k < got.matches.size(); ++k) {
      const lint::HbMatch& a = got.matches[k];
      const lint::HbMatch& b = want.matches[k];
      ASSERT_EQ(std::tie(a.src, a.send_record, a.dst, a.recv_record),
                std::tie(b.src, b.send_record, b.dst, b.recv_record))
          << "match " << k;
      const auto& recv = std::get<trace::Recv>(
          t.ranks[static_cast<std::size_t>(a.dst)][a.recv_record]);
      if (recv.src == kAnyRank) ++wildcard_matches;
    }
    lint::Report deadlock;
    lint::check_deadlock(t, deadlock);
    ASSERT_EQ(deadlock.render_json(), dense_deadlock::check(t).render_json());
    if (want.converged) {
      ++converged;
    } else {
      ++stuck;
    }
    if (deadlock.render_text().find("deadlock cycle") != std::string::npos) {
      ++cycles;
    }
  }
  // The generator must actually cover both outcomes and every feature.
  EXPECT_GE(converged, 15u);
  EXPECT_GE(stuck, 60u);
  EXPECT_GE(cycles, 20u);
  EXPECT_GE(wildcard_matches, 300u);
  EXPECT_GE(collectives, 5000u);
  EXPECT_GE(records, 20000u);
}

// --- golden report bytes on every bundled application -----------------------

/// FNV-1a 64 over the bytes of `text`.
std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// One line per (app, variant, rank count): the size and FNV-1a 64 of
/// lint_trace(...).render_json() for the app's original and overlap_real
/// traces (3 iterations, 4 chunks) at 16 and 64 ranks.
std::vector<std::string> lint_bytes_lines() {
  std::vector<std::string> lines;
  for (const std::int32_t ranks : {16, 64}) {
    for (const apps::MiniApp* app : apps::registry()) {
      apps::AppConfig config;
      config.ranks = ranks;
      config.iterations = 3;
      while (!app->supports_ranks(config.ranks)) ++config.ranks;
      const tracer::TracedRun traced = apps::trace_app(*app, config, {});
      overlap::OverlapOptions overlap_options;
      overlap_options.chunks = 4;
      for (const pipeline::TraceVariant variant :
           {pipeline::TraceVariant::kOriginal,
            pipeline::TraceVariant::kOverlapMeasured}) {
        const pipeline::ReplayContext context = pipeline::make_context(
            traced.annotated, variant, overlap_options,
            dimemas::Platform::marenostrum(config.ranks,
                                           app->paper_buses()));
        const std::string json =
            lint::lint_trace(context.trace()).render_json();
        lines.push_back(strprintf(
            "%s %s ranks=%d bytes=%zu fnv1a64=%016llx", app->name().c_str(),
            variant == pipeline::TraceVariant::kOriginal ? "original"
                                                         : "overlap_real",
            config.ranks, json.size(),
            static_cast<unsigned long long>(fnv1a64(json))));
      }
    }
  }
  return lines;
}

// tests/golden/lint_bytes.golden was generated with the dense-clock engine
// (one vector clock per record, separate deadlock machine) that the
// epoch-based machine replaced; the reports must stay byte-identical.
TEST(LintGolden, ReportBytesMatchGolden) {
  const std::string path =
      std::string(OSIM_GOLDEN_DIR) + "/lint_bytes.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  const std::vector<std::string> lines = lint_bytes_lines();
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << i;
  }
}

}  // namespace
}  // namespace osim
