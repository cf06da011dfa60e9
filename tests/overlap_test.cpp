// Tests for the overlap transformation: chunk geometry, per-chunk event
// times, message pairing, chunk tags, and the full trace transformation
// invariants (the paper's §II mechanisms).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/expect.hpp"
#include "lint/lint.hpp"
#include "overlap/chunks.hpp"
#include "overlap/pairing.hpp"
#include "overlap/transform.hpp"
#include "trace/annotated.hpp"

namespace osim::overlap {
namespace {

using trace::AnnEvent;
using trace::AnnotatedTrace;
using trace::kNeverAccessed;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::Send;
using trace::Trace;
using trace::Wait;

// --- chunk geometry ----------------------------------------------------------

TEST(Chunks, BoundsBalanced) {
  const auto bounds = chunk_bounds(100, 4);
  EXPECT_EQ(bounds, (std::vector<std::uint64_t>{0, 25, 50, 75, 100}));
}

TEST(Chunks, BoundsUnevenSplit) {
  const auto bounds = chunk_bounds(10, 3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 10u);
  // No chunk differs from another by more than one element.
  for (std::size_t j = 0; j + 1 < bounds.size(); ++j) {
    const std::uint64_t len = bounds[j + 1] - bounds[j];
    EXPECT_GE(len, 3u);
    EXPECT_LE(len, 4u);
  }
}

TEST(Chunks, SingleChunkCoversAll) {
  EXPECT_EQ(chunk_bounds(7, 1), (std::vector<std::uint64_t>{0, 7}));
}

TEST(Chunks, MeasuredSendTimesTakeChunkMax) {
  // 4 elements, 2 chunks. Chunk 0: stores at 10, 30 -> ready at 30.
  // Chunk 1: stores at 20, never -> ready at 20.
  const std::uint64_t stores[] = {10, 30, 20, kNeverAccessed};
  const auto bounds = chunk_bounds(4, 2);
  const auto times = measured_send_times(stores, bounds, 5, 100);
  EXPECT_EQ(times, (std::vector<std::uint64_t>{30, 20}));
}

TEST(Chunks, MeasuredSendTimesClamped) {
  const std::uint64_t stores[] = {2, 200};  // below start / above send
  const auto bounds = chunk_bounds(2, 2);
  const auto times = measured_send_times(stores, bounds, 5, 100);
  EXPECT_EQ(times[0], 5u);
  EXPECT_EQ(times[1], 100u);
}

TEST(Chunks, NeverStoredChunkReadyAtIntervalStart) {
  const std::uint64_t stores[] = {kNeverAccessed, kNeverAccessed};
  const auto times =
      measured_send_times(stores, chunk_bounds(2, 1), 40, 100);
  EXPECT_EQ(times[0], 40u);
}

TEST(Chunks, IdealSendTimesUniform) {
  const auto times = ideal_send_times(4, 100, 500);
  EXPECT_EQ(times, (std::vector<std::uint64_t>{200, 300, 400, 500}));
}

TEST(Chunks, MeasuredWaitTimesTakeChunkMin) {
  // 4 elements, 2 chunks. Chunk 0 first needed at 15, chunk 1 at 60.
  const std::uint64_t loads[] = {20, 15, 60, kNeverAccessed};
  const auto times =
      measured_wait_times(loads, chunk_bounds(4, 2), 10, 100);
  EXPECT_EQ(times, (std::vector<std::uint64_t>{15, 60}));
}

TEST(Chunks, NeverLoadedChunkWaitsAtIntervalEnd) {
  const std::uint64_t loads[] = {kNeverAccessed};
  const auto times = measured_wait_times(loads, chunk_bounds(1, 1), 10, 100);
  EXPECT_EQ(times[0], 100u);
}

TEST(Chunks, IdealWaitTimesUniform) {
  // Chunk 0 needed at the interval start (the ideal consumption row of
  // Table II: "nothing" = 0%).
  const auto times = ideal_wait_times(4, 100, 500);
  EXPECT_EQ(times, (std::vector<std::uint64_t>{100, 200, 300, 400}));
}

// --- pairing and chunk tags -----------------------------------------------------

AnnEvent p2p(AnnEvent::Kind kind, Rank peer, std::int64_t tag,
             std::uint64_t elems, std::uint64_t vclock,
             std::int64_t buffer = 0) {
  AnnEvent ev;
  ev.kind = kind;
  ev.vclock = vclock;
  ev.peer = peer;
  ev.tag = tag;
  ev.elem_bytes = 8;
  ev.bytes = elems * 8;
  ev.buffer_id = buffer;
  ev.chunkable = elems > 1;
  if (kind == AnnEvent::Kind::kSend || kind == AnnEvent::Kind::kIsend) {
    ev.interval_start = 0;
    ev.elem_last_store.assign(elems, kNeverAccessed);
  } else if (kind == AnnEvent::Kind::kRecv ||
             kind == AnnEvent::Kind::kIrecv) {
    ev.interval_end = vclock;
    ev.elem_first_load.assign(elems, kNeverAccessed);
  }
  return ev;
}

AnnotatedTrace simple_pair(std::uint64_t elems_send,
                           std::uint64_t elems_recv) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  t.ranks[0].events.push_back(
      p2p(AnnEvent::Kind::kSend, 1, 0, elems_send, 100));
  t.ranks[0].final_vclock = 100;
  t.ranks[1].events.push_back(
      p2p(AnnEvent::Kind::kRecv, 0, 0, elems_recv, 10));
  t.ranks[1].events.back().interval_end = 200;
  t.ranks[1].final_vclock = 200;
  return t;
}

TEST(Pairing, AgreedChunkCount) {
  const Pairing pairing = pair_messages(simple_pair(8, 8), OverlapOptions{});
  EXPECT_EQ(pairing.plans[0][0].chunks, 4);
  EXPECT_EQ(pairing.plans[1][0].chunks, 4);
  EXPECT_EQ(pairing.plans[0][0].pair_seq, 0);
  EXPECT_EQ(pairing.plans[1][0].pair_seq, 0);
}

TEST(Pairing, FewElementsFewChunks) {
  const Pairing pairing = pair_messages(simple_pair(2, 2), OverlapOptions{});
  EXPECT_EQ(pairing.plans[0][0].chunks, 2);
}

TEST(Pairing, ChunkingDisabled) {
  OverlapOptions options;
  options.chunking = false;
  const Pairing pairing = pair_messages(simple_pair(8, 8), options);
  EXPECT_EQ(pairing.plans[0][0].chunks, 1);  // advance/postpone as a unit
}

TEST(Pairing, OneSideUntrackedDisablesChunking) {
  AnnotatedTrace t = simple_pair(8, 8);
  t.ranks[1].events[0].chunkable = false;
  const Pairing pairing = pair_messages(t, OverlapOptions{});
  EXPECT_EQ(pairing.plans[0][0].chunks, 0);
  EXPECT_EQ(pairing.plans[1][0].chunks, 0);
}

TEST(Pairing, SizeMismatchThrows) {
  EXPECT_THROW(pair_messages(simple_pair(8, 4), OverlapOptions{}), Error);
}

TEST(Pairing, CountMismatchThrows) {
  AnnotatedTrace t = simple_pair(8, 8);
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 0, 8, 100));
  EXPECT_THROW(pair_messages(t, OverlapOptions{}), Error);
}

TEST(Pairing, SequencePerTagAndPeer) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  // Two messages tag 0, one message tag 1.
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 0, 8, 10));
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 1, 8, 20));
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 0, 8, 30));
  t.ranks[0].final_vclock = 30;
  t.ranks[1].events.push_back(p2p(AnnEvent::Kind::kRecv, 0, 0, 8, 10));
  t.ranks[1].events.push_back(p2p(AnnEvent::Kind::kRecv, 0, 1, 8, 20));
  t.ranks[1].events.push_back(p2p(AnnEvent::Kind::kRecv, 0, 0, 8, 30));
  for (auto& ev : t.ranks[1].events) ev.interval_end = 100;
  t.ranks[1].final_vclock = 100;
  const Pairing pairing = pair_messages(t, OverlapOptions{});
  EXPECT_EQ(pairing.plans[0][0].pair_seq, 0);  // tag 0, first
  EXPECT_EQ(pairing.plans[0][1].pair_seq, 0);  // tag 1, first
  EXPECT_EQ(pairing.plans[0][2].pair_seq, 1);  // tag 0, second
  EXPECT_EQ(pairing.plans[1][2].pair_seq, 1);
}

TEST(ChunkTags, UniqueAcrossDimensions) {
  std::set<trace::Tag> seen;
  for (const std::int64_t tag : {0, 1, 7}) {
    for (const std::int64_t seq : {0, 1, 100}) {
      for (int chunk = 0; chunk < 8; ++chunk) {
        EXPECT_TRUE(seen.insert(chunk_tag(tag, seq, chunk)).second);
      }
    }
  }
}

TEST(ChunkTags, DisjointFromAppAndCollectiveTags) {
  const trace::Tag t = chunk_tag(100, 5, 3);
  EXPECT_GT(t, (trace::Tag{1} << 61));  // far above application tags
}

// --- lower_original --------------------------------------------------------------

TEST(LowerOriginal, ReconstructsBursts) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 0, 4, 100));
  t.ranks[0].events.push_back(p2p(AnnEvent::Kind::kSend, 1, 1, 4, 250));
  t.ranks[0].final_vclock = 300;
  t.ranks[1].events.push_back(p2p(AnnEvent::Kind::kRecv, 0, 0, 4, 0));
  t.ranks[1].events.push_back(p2p(AnnEvent::Kind::kRecv, 0, 1, 4, 0));
  for (auto& ev : t.ranks[1].events) ev.interval_end = 10;
  t.ranks[1].final_vclock = 10;

  const Trace lowered = lower_original(t);
  EXPECT_EQ(lint::check_structure(lowered).num_errors(), 0u);
  // Rank 0: compute(100) send compute(150) send compute(50).
  ASSERT_EQ(lowered.ranks[0].size(), 5u);
  EXPECT_EQ(std::get<trace::CpuBurst>(lowered.ranks[0][0]).instructions,
            100u);
  EXPECT_EQ(std::get<trace::CpuBurst>(lowered.ranks[0][2]).instructions,
            150u);
  EXPECT_EQ(std::get<trace::CpuBurst>(lowered.ranks[0][4]).instructions,
            50u);
  EXPECT_EQ(lowered.total_instructions(0), 300u);
}

// --- transform -----------------------------------------------------------------

AnnotatedTrace producer_consumer() {
  // Rank 0 produces 8 elements across [0, 800] (element i final at
  // 100*(i+1)) and sends at 800. Rank 1 receives at 50 and consumes element
  // i at 100*i + 150 within its interval ending at 1000.
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  AnnEvent send = p2p(AnnEvent::Kind::kSend, 1, 0, 8, 800);
  for (std::size_t i = 0; i < 8; ++i) {
    send.elem_last_store[i] = 100 * (i + 1);
  }
  t.ranks[0].events.push_back(send);
  t.ranks[0].final_vclock = 900;

  AnnEvent recv = p2p(AnnEvent::Kind::kRecv, 0, 0, 8, 50);
  recv.interval_end = 1000;
  for (std::size_t i = 0; i < 8; ++i) {
    recv.elem_first_load[i] = 100 * i + 150;
  }
  t.ranks[1].events.push_back(recv);
  t.ranks[1].final_vclock = 1000;
  return t;
}

struct Shape {
  std::size_t isends = 0;
  std::size_t irecvs = 0;
  std::size_t waits = 0;
  std::uint64_t send_bytes = 0;
};

Shape shape_of(const std::vector<Record>& stream) {
  Shape s;
  for (const Record& rec : stream) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) ++s.isends;
      s.send_bytes += send->bytes;
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if (recv->immediate) ++s.irecvs;
    } else if (std::holds_alternative<Wait>(rec)) {
      ++s.waits;
    }
  }
  return s;
}

TEST(Transform, ChunksSendAndRecv) {
  const Trace out = transform(producer_consumer(), OverlapOptions{});
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  const Shape sender = shape_of(out.ranks[0]);
  EXPECT_EQ(sender.isends, 4u);
  EXPECT_EQ(sender.send_bytes, 64u);  // byte total conserved
  EXPECT_EQ(sender.waits, 1u);        // trailing cleanup
  const Shape receiver = shape_of(out.ranks[1]);
  EXPECT_EQ(receiver.irecvs, 4u);
  EXPECT_EQ(receiver.waits, 4u);  // one postponed wait per chunk
}

TEST(Transform, InstructionTotalsPreserved) {
  const AnnotatedTrace t = producer_consumer();
  const Trace original = lower_original(t);
  const Trace overlapped = transform(t, OverlapOptions{});
  for (Rank r = 0; r < 2; ++r) {
    EXPECT_EQ(original.total_instructions(r),
              overlapped.total_instructions(r));
  }
}

TEST(Transform, AdvancedSendsSitAtProductionInstants) {
  const Trace out = transform(producer_consumer(), OverlapOptions{});
  // Sender: chunk j (2 elements) ready at 100*(2j+2); bursts between the
  // isends must reflect those instants.
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> isend_times;
  for (const Record& rec : out.ranks[0]) {
    if (const auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
      clock += burst->instructions;
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) isend_times.push_back(clock);
    }
  }
  EXPECT_EQ(isend_times,
            (std::vector<std::uint64_t>{200, 400, 600, 800}));
}

TEST(Transform, PostponedWaitsSitAtFirstUseInstants) {
  const Trace out = transform(producer_consumer(), OverlapOptions{});
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> wait_times;
  for (const Record& rec : out.ranks[1]) {
    if (const auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
      clock += burst->instructions;
    } else if (std::holds_alternative<Wait>(rec)) {
      wait_times.push_back(clock);
    }
  }
  // Chunk j (elements 2j, 2j+1) first needed at 100*(2j) + 150.
  EXPECT_EQ(wait_times, (std::vector<std::uint64_t>{150, 350, 550, 750}));
}

TEST(Transform, IdealPatternUniform) {
  OverlapOptions options;
  options.pattern = PatternMode::kIdeal;
  const Trace out = transform(producer_consumer(), options);
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> isend_times;
  for (const Record& rec : out.ranks[0]) {
    if (const auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
      clock += burst->instructions;
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) isend_times.push_back(clock);
    }
  }
  // Uniform quarters of [0, 800].
  EXPECT_EQ(isend_times,
            (std::vector<std::uint64_t>{200, 400, 600, 800}));
}

TEST(Transform, AdvanceSendsOffKeepsSendsAtCall) {
  OverlapOptions options;
  options.advance_sends = false;
  const Trace out = transform(producer_consumer(), options);
  std::uint64_t clock = 0;
  for (const Record& rec : out.ranks[0]) {
    if (const auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
      clock += burst->instructions;
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) {
        EXPECT_EQ(clock, 800u);
      }
    }
  }
}

TEST(Transform, PostponeOffWaitsAtCall) {
  OverlapOptions options;
  options.postpone_receptions = false;
  const Trace out = transform(producer_consumer(), options);
  std::uint64_t clock = 0;
  for (const Record& rec : out.ranks[1]) {
    if (const auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
      clock += burst->instructions;
    } else if (std::holds_alternative<Wait>(rec)) {
      EXPECT_EQ(clock, 50u);  // at the original recv position
    }
  }
}

TEST(Transform, DoubleBufferingOffForcesSynchronous) {
  OverlapOptions options;
  options.double_buffering = false;
  const Trace out = transform(producer_consumer(), options);
  for (const Record& rec : out.ranks[0]) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      EXPECT_TRUE(send->synchronous);
    }
  }
}

TEST(Transform, UnchunkableMessagePassesThrough) {
  AnnotatedTrace t = simple_pair(8, 8);
  t.ranks[0].events[0].chunkable = false;
  const Trace out = transform(t, OverlapOptions{});
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  const Shape sender = shape_of(out.ranks[0]);
  EXPECT_EQ(sender.isends, 0u);
  EXPECT_EQ(sender.send_bytes, 64u);
}

TEST(Transform, AppIrecvWaitReplaced) {
  // App-level irecv + wait on the receiver: the transform must drop the
  // original wait (its request is replaced) and produce a valid trace.
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  AnnEvent send = p2p(AnnEvent::Kind::kSend, 1, 0, 4, 100);
  send.elem_last_store.assign(4, 50);
  t.ranks[0].events.push_back(send);
  t.ranks[0].final_vclock = 100;

  AnnEvent irecv = p2p(AnnEvent::Kind::kIrecv, 0, 0, 4, 10);
  irecv.request = 7;
  irecv.interval_end = 500;
  irecv.elem_first_load.assign(4, 300);
  irecv.wait_event_index = 1;
  t.ranks[1].events.push_back(irecv);
  AnnEvent wait;
  wait.kind = AnnEvent::Kind::kWait;
  wait.vclock = 200;
  wait.wait_requests = {7};
  t.ranks[1].events.push_back(wait);
  t.ranks[1].final_vclock = 500;

  const Trace out = transform(t, OverlapOptions{});
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  // No record may reference the replaced request 7.
  for (const Record& rec : out.ranks[1]) {
    if (const auto* w = std::get_if<Wait>(&rec)) {
      for (const trace::ReqId req : w->requests) EXPECT_NE(req, 7);
    }
  }
}

TEST(Transform, SenderRotationWaitsBeforeReuse) {
  // Two consecutive sends on the same buffer: the second message's first
  // chunk isend must be preceded by a wait on the first message's chunks.
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  AnnEvent first = p2p(AnnEvent::Kind::kSend, 1, 0, 4, 100);
  first.elem_last_store.assign(4, 80);
  AnnEvent second = p2p(AnnEvent::Kind::kSend, 1, 0, 4, 300);
  second.interval_start = 100;
  second.elem_last_store.assign(4, 200);
  t.ranks[0].events.push_back(first);
  t.ranks[0].events.push_back(second);
  t.ranks[0].final_vclock = 300;
  for (int i = 0; i < 2; ++i) {
    AnnEvent recv = p2p(AnnEvent::Kind::kRecv, 0, 0, 4, 10 + i);
    recv.interval_end = 400;
    t.ranks[1].events.push_back(recv);
  }
  t.ranks[1].events[0].vclock = 10;
  t.ranks[1].events[1].vclock = 20;
  t.ranks[1].events[0].interval_end = 20;
  t.ranks[1].final_vclock = 400;

  const Trace out = transform(t, OverlapOptions{});
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  // Track request lifetimes: the first four isend requests must be waited
  // before the fifth isend appears.
  std::set<trace::ReqId> first_batch;
  bool rotation_seen = false;
  std::size_t isends_seen = 0;
  for (const Record& rec : out.ranks[0]) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!send->immediate) continue;
      ++isends_seen;
      if (isends_seen <= 4) {
        first_batch.insert(send->request);
      } else {
        EXPECT_TRUE(rotation_seen)
            << "second message chunk sent before the rotation wait";
      }
    } else if (const auto* w = std::get_if<Wait>(&rec)) {
      for (const trace::ReqId req : w->requests) {
        if (first_batch.count(req)) rotation_seen = true;
      }
    }
  }
  EXPECT_EQ(isends_seen, 8u);
}

TEST(Transform, GlobalOpsPassThrough) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 1000.0);
  for (Rank r = 0; r < 2; ++r) {
    AnnEvent ev;
    ev.kind = AnnEvent::Kind::kGlobalOp;
    ev.vclock = 10;
    ev.coll = trace::CollectiveKind::kAllreduce;
    ev.bytes = 8;
    ev.coll_sequence = 0;
    t.ranks[r].events.push_back(ev);
    t.ranks[r].final_vclock = 20;
  }
  const Trace out = transform(t, OverlapOptions{});
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  std::size_t globals = 0;
  for (const auto& stream : out.ranks) {
    for (const Record& rec : stream) {
      globals += std::holds_alternative<trace::GlobalOp>(rec);
    }
  }
  EXPECT_EQ(globals, 2u);
}

TEST(Pairing, AutoChunkingByBytes) {
  // 8 elements x 8 bytes = 64 bytes; 16-byte chunks -> 4 chunks.
  OverlapOptions options;
  options.auto_chunk_bytes = 16;
  const Pairing pairing = pair_messages(simple_pair(8, 8), options);
  EXPECT_EQ(pairing.plans[0][0].chunks, 4);
  // Huge chunk budget -> single chunk.
  options.auto_chunk_bytes = 1 << 20;
  EXPECT_EQ(pair_messages(simple_pair(8, 8), options).plans[0][0].chunks, 1);
}

TEST(Pairing, AutoChunkingCappedAt256) {
  OverlapOptions options;
  options.auto_chunk_bytes = 1;
  EXPECT_EQ(options.effective_chunks(1'000'000, 1'000'000), 256);
}

class ChunkCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChunkCountSweep, AlwaysValidAndConserving) {
  OverlapOptions options;
  options.chunks = GetParam();
  const AnnotatedTrace t = producer_consumer();
  const Trace out = transform(t, options);
  EXPECT_EQ(lint::check_structure(out).num_errors(), 0u);
  const Shape sender = shape_of(out.ranks[0]);
  EXPECT_EQ(sender.send_bytes, 64u);
  EXPECT_EQ(sender.isends,
            static_cast<std::size_t>(std::min(GetParam(), 8)));
  EXPECT_EQ(lower_original(t).total_instructions(0),
            out.total_instructions(0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkCountSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

}  // namespace
}  // namespace osim::overlap
