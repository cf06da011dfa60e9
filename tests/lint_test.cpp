// Tests for the trace semantic verifier (src/lint): each pass must flag
// its seeded defect with the exact diagnostic — pass name, rank and record
// index — stay silent on clean traces, and report zero diagnostics on every
// bundled application at 4 and 8 ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "lint/lint.hpp"
#include "lint/match.hpp"
#include "overlap/pairing.hpp"
#include "overlap/transform.hpp"
#include "pipeline/context.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

using lint::Diagnostic;
using lint::kNoRecord;
using lint::Report;
using lint::Severity;
using trace::Trace;
using trace::TraceBuilder;

bool message_contains(const Diagnostic& d, const std::string& needle) {
  return d.message.find(needle) != std::string::npos;
}

/// The single diagnostic at warning severity or above, asserted to exist.
/// Info-level advisories (the overlap-hazard pass) are not counted: they
/// annotate healthy immediate operations, not defects.
const Diagnostic& only_diagnostic(const Report& report) {
  const Diagnostic* found = nullptr;
  std::size_t actionable = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kInfo) continue;
    if (found == nullptr) found = &d;
    ++actionable;
  }
  EXPECT_EQ(actionable, 1u) << report.render_text();
  if (found == nullptr) {
    ADD_FAILURE() << "no warning/error diagnostic:\n" << report.render_text();
    static const Diagnostic empty{};
    return empty;
  }
  return *found;
}

// --- match pass -------------------------------------------------------------

TEST(LintMatch, UnmatchedSendIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100);
  b.send(0, 1, 7, 64);  // rank 0 record 1: nobody receives this
  b.compute(1, 100);
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.pass, "match");
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.record, 1);
  EXPECT_EQ(d.message,
            "unmatched send to rank 1 tag 7 (64 bytes): rank 1 posts only 0 "
            "matching recv(s)");
}

TEST(LintMatch, UnmatchedRecvIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.recv(1, 0, 9, 32);  // rank 1 record 0: nobody sends this
  const Report report = lint::lint_trace(std::move(b).build());

  // The blocking recv also strands rank 1 forever, so the deadlock pass
  // reports starvation on top of the match error.
  ASSERT_EQ(report.num_errors(), 2u) << report.render_text();
  const Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.pass, "match");
  EXPECT_EQ(d.rank, 1);
  EXPECT_EQ(d.record, 0);
  EXPECT_EQ(d.message,
            "unmatched recv from rank 0 tag 9 (32 bytes): no send with this "
            "envelope");
  EXPECT_EQ(report.diagnostics().back().pass, "deadlock");
}

TEST(LintMatch, TooSmallRecvBufferIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 3, 128);
  b.recv(1, 0, 3, 64);  // smaller than the matching send: can never match
  const Trace t = std::move(b).build();
  const Report report = lint::lint_trace(t);

  ASSERT_FALSE(report.clean());
  const Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.pass, "match");
  EXPECT_EQ(d.rank, 1);
  EXPECT_EQ(d.record, 0);
  EXPECT_TRUE(message_contains(d, "smaller than its matching send"))
      << d.message;
}

TEST(LintMatch, WildcardRecvMatchesAnySourceAndTag) {
  TraceBuilder b(3, 1000.0);
  b.send(0, 2, 11, 256);
  b.send(1, 2, 12, 256);
  b.recv(2, trace::kAnyRank, trace::kAnyTag, 256);
  b.recv(2, trace::kAnyRank, 12, 256);
  const Report report = lint::lint_trace(std::move(b).build());

  // Matching is feasible (no errors), but the fully-wildcarded first recv
  // genuinely races: both concurrent sends match its envelope, so the
  // races pass flags it. The second recv pins tag 12 and only one
  // candidate remains — no race there.
  EXPECT_EQ(report.num_errors(), 0u) << report.render_text();
  ASSERT_EQ(report.num_warnings(), 1u) << report.render_text();
  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.pass, "races");
  EXPECT_EQ(d.code, "wildcard-race");
  EXPECT_EQ(d.rank, 2);
  EXPECT_EQ(d.record, 0);
  EXPECT_TRUE(message_contains(d, "nondeterministic")) << d.message;
}

TEST(LintMatch, InfeasibleWildcardAssignmentIsAnError) {
  // Two wildcard recvs but only one send: one recv cannot be satisfied.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 5, 64);
  b.recv(1, trace::kAnyRank, trace::kAnyTag, 64);
  b.recv(1, trace::kAnyRank, trace::kAnyTag, 64);
  const Report report = lint::lint_trace(std::move(b).build());
  ASSERT_FALSE(report.clean());
  const Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.pass, "match");
  EXPECT_EQ(d.rank, 1);
  EXPECT_TRUE(message_contains(d, "wildcards present")) << d.message;
}

/// Seeded point-to-point traffic in which about half of the receives are
/// wildcards and counts and sizes are drawn independently, so the traffic
/// cannot all match and the bipartite matcher's visit order decides which
/// sends and receives are reported unmatched.
Trace wildcard_heavy_trace(std::uint64_t seed) {
  Rng rng(seed);
  const auto ranks = static_cast<trace::Rank>(3 + rng.below(10));
  const auto other_rank = [&](trace::Rank self) {
    return static_cast<trace::Rank>(
        (self + 1 + static_cast<trace::Rank>(rng.below(
                        static_cast<std::uint64_t>(ranks - 1)))) %
        ranks);
  };
  TraceBuilder b(ranks, 1000.0);
  for (trace::Rank r = 0; r < ranks; ++r) {
    const std::uint64_t sends = 1 + rng.below(12);
    for (std::uint64_t k = 0; k < sends; ++k) {
      b.send(r, other_rank(r), static_cast<trace::Tag>(rng.below(3)),
             64u << rng.below(3));
    }
  }
  for (trace::Rank r = 0; r < ranks; ++r) {
    const std::uint64_t recvs = rng.below(14);
    for (std::uint64_t k = 0; k < recvs; ++k) {
      const trace::Rank src =
          rng.below(2) == 0 ? trace::kAnyRank : other_rank(r);
      const trace::Tag tag = rng.below(3) == 0
                                 ? trace::kAnyTag
                                 : static_cast<trace::Tag>(rng.below(3));
      b.recv(r, src, tag, 64u << rng.below(3));
    }
  }
  return std::move(b).build();
}

// tests/golden/match_wildcard.golden holds check_matching's text report
// for each seeded trace above, generated with the original Kuhn matcher
// that rescanned visited receives; the bounded matcher must reproduce it
// byte for byte.
TEST(LintMatch, WildcardDiagnosticsMatchGolden) {
  std::string text;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Report report;
    lint::check_matching(wildcard_heavy_trace(seed), report);
    text += strprintf("# seed %llu\n", static_cast<unsigned long long>(seed));
    text += report.render_text();
  }
  const std::string path =
      std::string(OSIM_GOLDEN_DIR) + "/match_wildcard.golden";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text, golden);
}

/// Master-worker traffic at scale: every rank but 0 sends to rank 0 in
/// each round, and rank 0 receives them all through ANY_SOURCE, so the
/// feasibility matcher sees one destination with ranks x rounds wildcard
/// receives that all match every send.
Trace any_source_master_worker(trace::Rank ranks, int rounds) {
  TraceBuilder b(ranks, 1000.0);
  for (int round = 0; round < rounds; ++round) {
    for (trace::Rank r = 1; r < ranks; ++r) {
      b.compute(r, 1000);
      b.send(r, 0, 3, 64);
      b.recv(0, trace::kAnyRank, 3, 64);
    }
  }
  return std::move(b).build();
}

TEST(LintMatch, AnySourceMasterWorkerAt1024RanksStaysBounded) {
  // A matcher that rescans visited receives is cubic here (minutes); the
  // bounded one takes well under a second. ctest's TIMEOUT turns a
  // regression into a failure.
  const Trace t = any_source_master_worker(1024, 8);
  const pipeline::ReplayContext context(
      t, dimemas::Platform::marenostrum(1024, 0));
  const Report report = lint::lint_trace(context.trace());
  EXPECT_EQ(report.num_errors(), 0u);
}

// --- requests pass ----------------------------------------------------------

TEST(LintRequests, LeakedIrecvRequestIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100);
  b.irecv(0, 1, 3, 64, /*request=*/5);  // rank 0 record 1: never waited
  b.send(1, 0, 3, 64);
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.pass, "requests");
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.record, 1);
  EXPECT_EQ(d.message, "request 5 is never waited: leaked at end of trace");
}

TEST(LintRequests, WaitOnUnknownRequestIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 1, 8);
  b.recv(1, 0, 1, 8);
  b.wait(0, {42});  // rank 0 record 1: request 42 was never issued
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.pass, "requests");
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.record, 1);
  EXPECT_EQ(d.message, "wait on unknown request 42");
}

TEST(LintRequests, DoubleWaitIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 1, 8, /*request=*/0);
  b.wait(0, {0});
  b.wait(0, {0});  // rank 0 record 2: already completed at record 1
  b.send(1, 0, 1, 8);
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.pass, "requests");
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.record, 2);
  EXPECT_EQ(d.message,
            "wait on request 0 already completed by the wait at record 1");
}

// --- deadlock pass ----------------------------------------------------------

TEST(LintDeadlock, ThreeRankSendCycleIsReportedWithBlameChain) {
  // Classic head-to-head ring: every rank sends before it receives, and the
  // messages are large enough to force the rendezvous protocol, so all
  // three sends block on a receiver that never posts.
  constexpr std::uint64_t kBytes = 100'000;  // > 16 KiB eager threshold
  TraceBuilder b(3, 1000.0);
  for (trace::Rank r = 0; r < 3; ++r) {
    const trace::Rank to = (r + 1) % 3;
    const trace::Rank from = (r + 2) % 3;
    b.send(r, to, 5, kBytes);
    b.recv(r, from, 5, kBytes);
  }
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.pass, "deadlock");
  EXPECT_EQ(d.rank, -1);            // cross-rank finding
  EXPECT_EQ(d.record, kNoRecord);
  EXPECT_TRUE(message_contains(d, "deadlock cycle among ranks 0, 1, 2"))
      << d.message;
  // The blame chain names every participant with its blocked record.
  EXPECT_TRUE(message_contains(d, "rank 0 blocked at record 0")) << d.message;
  EXPECT_TRUE(message_contains(d, "rank 1 blocked at record 0")) << d.message;
  EXPECT_TRUE(message_contains(d, "rank 2 blocked at record 0")) << d.message;
  EXPECT_TRUE(message_contains(d, "needs a matching recv on rank 1"))
      << d.message;
}

TEST(LintDeadlock, SameRingUnderEagerProtocolIsClean) {
  // The identical exchange with small messages completes: eager sends
  // buffer, so the ring drains. Deadlock is a protocol property.
  TraceBuilder b(3, 1000.0);
  for (trace::Rank r = 0; r < 3; ++r) {
    b.send(r, (r + 1) % 3, 5, 64);
    b.recv(r, (r + 2) % 3, 5, 64);
  }
  EXPECT_TRUE(lint::lint_trace(std::move(b).build()).clean());
}

TEST(LintDeadlock, EagerThresholdOptionControlsRendezvous) {
  // With the cutoff lowered to zero, even the 64-byte ring deadlocks.
  TraceBuilder b(3, 1000.0);
  for (trace::Rank r = 0; r < 3; ++r) {
    b.send(r, (r + 1) % 3, 5, 64);
    b.recv(r, (r + 2) % 3, 5, 64);
  }
  lint::LintOptions strict;
  strict.eager_threshold_bytes = 0;
  const Report report = lint::lint_trace(std::move(b).build(), strict);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.diagnostics().front().pass, "deadlock");
}

TEST(LintDeadlock, PrePostedIrecvBreaksTheCycle) {
  constexpr std::uint64_t kBytes = 100'000;
  TraceBuilder b(3, 1000.0);
  for (trace::Rank r = 0; r < 3; ++r) {
    b.irecv(r, (r + 2) % 3, 5, kBytes, /*request=*/r);
    b.send(r, (r + 1) % 3, 5, kBytes);
    b.wait(r, {r});
  }
  EXPECT_TRUE(lint::lint_trace(std::move(b).build()).clean());
}

// --- collectives pass -------------------------------------------------------

TEST(LintCollectives, MismatchedKindIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.global(0, trace::CollectiveKind::kBarrier, 0, 0, /*sequence=*/0);
  b.global(1, trace::CollectiveKind::kBcast, 0, 8, /*sequence=*/0);
  const Report report = lint::lint_trace(std::move(b).build());

  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.pass, "collectives");
  EXPECT_EQ(d.rank, 1);
  EXPECT_EQ(d.record, 0);
  EXPECT_EQ(d.message,
            "collective #0 disagrees with rank 0: rank 1 issues "
            "bcast(root=0, 8 bytes, seq=0) but rank 0 issues "
            "barrier(root=0, 0 bytes, seq=0) (record 0)");
}

TEST(LintCollectives, MissingCollectiveIsAnErrorAndStarvesTheRank) {
  TraceBuilder b(2, 1000.0);
  b.global(0, trace::CollectiveKind::kAllreduce, 0, 8, 0);
  b.global(1, trace::CollectiveKind::kAllreduce, 0, 8, 0);
  b.global(1, trace::CollectiveKind::kBarrier, 0, 0, 1);  // rank 0 never joins
  const Report report = lint::lint_trace(std::move(b).build());

  ASSERT_EQ(report.num_errors(), 2u) << report.render_text();
  const Diagnostic& count = report.diagnostics().front();
  EXPECT_EQ(count.pass, "collectives");
  EXPECT_EQ(count.rank, 1);
  EXPECT_EQ(count.record, kNoRecord);
  EXPECT_EQ(count.message,
            "rank issues 2 collective(s) but rank 0 issues 1: the k-th "
            "collectives cannot pair");
  // ... and the abstract machine confirms rank 1 can never get past it.
  const Diagnostic& starved = report.diagnostics().back();
  EXPECT_EQ(starved.pass, "deadlock");
  EXPECT_EQ(starved.rank, 1);
  EXPECT_EQ(starved.record, 1);
  EXPECT_TRUE(message_contains(starved, "rank starves")) << starved.message;
}

TEST(LintCollectives, PayloadMismatchIsOnlyAWarning) {
  TraceBuilder b(2, 1000.0);
  b.global(0, trace::CollectiveKind::kAllreduce, 0, 8, 0);
  b.global(1, trace::CollectiveKind::kAllreduce, 0, 16, 0);
  const Report report = lint::lint_trace(std::move(b).build());
  EXPECT_EQ(report.num_errors(), 0u) << report.render_text();
  ASSERT_EQ(report.num_warnings(), 1u) << report.render_text();
  const Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.pass, "collectives");
  EXPECT_TRUE(report.has_at_least(Severity::kWarning));
  EXPECT_FALSE(report.has_at_least(Severity::kError));
}

// --- transform pass ---------------------------------------------------------

/// One 128-byte message from rank 0 to rank 1 with tag 5.
Trace simple_original() {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 5, 128);
  b.recv(1, 0, 5, 128);
  return std::move(b).build();
}

TEST(LintTransform, FaithfulChunkingIsClean) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 1), 64, 1);
  b.wait(0, {0, 1});
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 1), 64, 1);
  b.wait(1, {0, 1});
  const Trace transformed = std::move(b).build();
  EXPECT_TRUE(lint::lint_trace(transformed).clean());
  EXPECT_TRUE(lint::lint_transform(simple_original(), transformed).clean());
}

TEST(LintTransform, ChunkTagCollisionIsAnError) {
  // Both chunks of the pair carry chunk index 0: the derived tags collide.
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 0), 64, 1);  // rank 0 record 1
  b.wait(0, {0, 1});
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 0), 64, 1);
  b.wait(1, {0, 1});
  const Report report =
      lint::lint_transform(simple_original(), std::move(b).build());

  ASSERT_FALSE(report.clean());
  const auto it = std::find_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [](const Diagnostic& d) {
        return message_contains(d, "chunk-tag collision");
      });
  ASSERT_NE(it, report.diagnostics().end()) << report.render_text();
  EXPECT_EQ(it->severity, Severity::kError);
  EXPECT_EQ(it->pass, "transform");
  EXPECT_EQ(it->rank, 0);
  EXPECT_EQ(it->record, 1);  // the second, colliding isend
  EXPECT_EQ(it->message,
            "chunk-tag collision on the send side: chunk 0 of message "
            "pair_seq=0 (src=0 dst=1 tag=5) is issued twice");
}

TEST(LintTransform, ByteLossIsAnError) {
  // The chunks sum to 96 bytes, not the original 128.
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.isend(0, 1, overlap::chunk_tag(5, 0, 1), 32, 1);
  b.wait(0, {0, 1});
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 0), 64, 0);
  b.irecv(1, 0, overlap::chunk_tag(5, 0, 1), 32, 1);
  b.wait(1, {0, 1});
  const Report report =
      lint::lint_transform(simple_original(), std::move(b).build());

  ASSERT_EQ(report.diagnostics().size(), 2u) << report.render_text();
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.pass, "transform");
    EXPECT_TRUE(message_contains(
        d, "sums to 96 bytes but the original message 0 carries 128 bytes"))
        << d.message;
  }
  EXPECT_EQ(report.diagnostics().front().rank, 0);  // send side
  EXPECT_EQ(report.diagnostics().back().rank, 1);   // recv side
}

TEST(LintTransform, DroppedTrafficIsAnError) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 10);
  b.compute(1, 10);
  const Report report =
      lint::lint_transform(simple_original(), std::move(b).build());
  ASSERT_EQ(report.diagnostics().size(), 2u) << report.render_text();
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.pass, "transform");
    EXPECT_TRUE(message_contains(d, "disappeared in the transformed trace"))
        << d.message;
  }
}

TEST(LintTransform, RankCountChangeIsAnError) {
  const Report report = lint::lint_transform(
      simple_original(), Trace::make(3, 1000.0));
  const Diagnostic& d = only_diagnostic(report);
  EXPECT_EQ(d.pass, "transform");
  EXPECT_EQ(d.message, "rank count changed: original has 2, transformed has 3");
}

// --- clean traces end to end ------------------------------------------------

TEST(LintClean, EmptyTraceIsClean) {
  EXPECT_TRUE(lint::lint_trace(Trace::make(4, 1000.0)).clean());
}

TEST(LintClean, ExchangeWithCollectivesIsClean) {
  TraceBuilder b(4, 1000.0);
  for (trace::Rank r = 0; r < 4; ++r) {
    b.compute(r, 50'000);
    b.irecv(r, (r + 3) % 4, 1, 32'768, /*request=*/7);
    b.send(r, (r + 1) % 4, 1, 32'768);
    b.wait(r, {7});
    b.global(r, trace::CollectiveKind::kAllreduce, 0, 8, 0);
  }
  EXPECT_TRUE(lint::lint_trace(std::move(b).build()).clean());
}

/// Acceptance criterion: every bundled application's original and
/// transformed traces lint clean (errors *and* warnings) at 4 and 8 ranks,
/// and the transformed traces check out against the original.
class LintApps : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(LintApps, AllAppsLintCleanAtThisRankCount) {
  apps::AppConfig config;
  config.ranks = GetParam();
  config.iterations = 2;
  for (const apps::MiniApp* app : apps::registry()) {
    if (!app->supports_ranks(config.ranks)) continue;
    const tracer::TracedRun traced = apps::trace_app(*app, config);
    const Trace original = overlap::lower_original(traced.annotated);

    overlap::OverlapOptions real_options;
    overlap::OverlapOptions ideal_options;
    ideal_options.pattern = overlap::PatternMode::kIdeal;
    const Trace real = overlap::transform(traced.annotated, real_options);
    const Trace ideal = overlap::transform(traced.annotated, ideal_options);

    for (const Trace* t : {&original, &real, &ideal}) {
      const Report report = lint::lint_trace(*t);
      EXPECT_TRUE(report.clean())
          << app->name() << " at " << config.ranks << " ranks:\n"
          << report.render_text();
    }
    for (const Trace* t : {&real, &ideal}) {
      const Report report = lint::lint_transform(original, *t);
      EXPECT_TRUE(report.clean())
          << app->name() << " transform at " << config.ranks << " ranks:\n"
          << report.render_text();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, LintApps, ::testing::Values(4, 8));

// --- diagnostics rendering --------------------------------------------------

TEST(LintReport, TextAndCsvRendering) {
  Report report;
  report.error("match", 2, 14, "boom");
  report.warning("collectives", -1, kNoRecord, "sizes \"differ\"");
  const std::string text = report.render_text();
  EXPECT_NE(text.find("error [match] rank 2 record 14: boom"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos) << text;
  const std::string csv = report.render_csv();
  EXPECT_NE(csv.find("severity,pass,rank,record,message"), std::string::npos);
  EXPECT_NE(csv.find("error,match,2,14,boom"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"sizes \"\"differ\"\"\""), std::string::npos) << csv;
}

}  // namespace
}  // namespace osim
