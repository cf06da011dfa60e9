// Unit tests for the collective-expansion pre-pass: tree shapes, payload
// sizes, tag uniqueness, and structural validity of the expanded traces.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dimemas/collectives.hpp"
#include "dimemas/replay.hpp"
#include "lint/lint.hpp"
#include "trace/trace.hpp"

namespace osim::dimemas {
namespace {

using trace::CollectiveKind;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::Send;
using trace::Trace;
using trace::TraceBuilder;

Trace single_collective(Rank ranks, CollectiveKind kind, Rank root,
                        std::uint64_t bytes) {
  TraceBuilder b(ranks, 1000.0);
  for (Rank r = 0; r < ranks; ++r) b.global(r, kind, root, bytes, 0);
  return std::move(b).build();
}

struct Counts {
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::uint64_t bytes_sent = 0;
};

Counts count_p2p(const Trace& t) {
  Counts c;
  for (const auto& stream : t.ranks) {
    for (const Record& rec : stream) {
      if (const auto* send = std::get_if<Send>(&rec)) {
        ++c.sends;
        c.bytes_sent += send->bytes;
      } else if (std::holds_alternative<Recv>(rec)) {
        ++c.recvs;
      }
    }
  }
  return c;
}

TEST(Collectives, HasCollectivesDetects) {
  EXPECT_TRUE(
      has_collectives(single_collective(2, CollectiveKind::kBarrier, 0, 0)));
  TraceBuilder b(2, 1000.0);
  b.compute(0, 5);
  EXPECT_FALSE(has_collectives(std::move(b).build()));
}

TEST(Collectives, ExpansionValidates) {
  for (const CollectiveKind kind :
       {CollectiveKind::kBarrier, CollectiveKind::kBcast,
        CollectiveKind::kReduce, CollectiveKind::kAllreduce,
        CollectiveKind::kGather, CollectiveKind::kScatter,
        CollectiveKind::kAllgather, CollectiveKind::kAlltoall}) {
    for (const Rank ranks : {2, 3, 4, 5, 8, 13}) {
      const Trace expanded =
          expand_collectives(single_collective(ranks, kind, 0, 64));
      EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u)
          << collective_name(kind) << " over " << ranks << " ranks";
      EXPECT_FALSE(has_collectives(expanded));
    }
  }
}

TEST(Collectives, NonZeroRootValidates) {
  for (const CollectiveKind kind :
       {CollectiveKind::kBcast, CollectiveKind::kReduce,
        CollectiveKind::kGather, CollectiveKind::kScatter}) {
    for (const Rank root : {1, 2, 4}) {
      const Trace expanded =
          expand_collectives(single_collective(5, kind, root, 32));
      EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u)
          << collective_name(kind) << " root " << root;
    }
  }
}

TEST(Collectives, BcastMessageCount) {
  // A broadcast tree over P ranks has exactly P-1 edges.
  for (const Rank ranks : {2, 4, 7, 16}) {
    const Counts c = count_p2p(
        expand_collectives(single_collective(ranks, CollectiveKind::kBcast,
                                             0, 100)));
    EXPECT_EQ(c.sends, static_cast<std::size_t>(ranks - 1));
    EXPECT_EQ(c.recvs, static_cast<std::size_t>(ranks - 1));
    EXPECT_EQ(c.bytes_sent, 100u * static_cast<std::uint64_t>(ranks - 1));
  }
}

TEST(Collectives, BarrierHasUpAndDownPhases) {
  const Counts c = count_p2p(
      expand_collectives(single_collective(8, CollectiveKind::kBarrier, 0, 0)));
  EXPECT_EQ(c.sends, 14u);  // 7 up + 7 down
  EXPECT_EQ(c.bytes_sent, 0u);
}

TEST(Collectives, GatherMovesAllPayloadToRoot) {
  // Total bytes crossing the tree: every rank's payload travels once per
  // tree level it ascends; with subtree aggregation the root receives
  // exactly (P-1) * bytes in total across its incoming edges.
  const Rank ranks = 8;
  const Trace expanded = expand_collectives(
      single_collective(ranks, CollectiveKind::kGather, 0, 10));
  std::uint64_t into_root = 0;
  for (const Record& rec : expanded.ranks[0]) {
    if (const auto* recv = std::get_if<Recv>(&rec)) into_root += recv->bytes;
  }
  EXPECT_EQ(into_root, 70u);  // 7 other ranks x 10 bytes
}

TEST(Collectives, ScatterMirrorsGather) {
  const Rank ranks = 8;
  const Trace expanded = expand_collectives(
      single_collective(ranks, CollectiveKind::kScatter, 0, 10));
  std::uint64_t out_of_root = 0;
  for (const Record& rec : expanded.ranks[0]) {
    if (const auto* send = std::get_if<Send>(&rec)) out_of_root += send->bytes;
  }
  EXPECT_EQ(out_of_root, 70u);
}

TEST(Collectives, AlltoallFullExchange) {
  const Rank ranks = 5;
  const Trace expanded = expand_collectives(
      single_collective(ranks, CollectiveKind::kAlltoall, 0, 16));
  // Every ordered pair exchanges one block.
  const Counts c = count_p2p(expanded);
  EXPECT_EQ(c.sends, static_cast<std::size_t>(ranks * (ranks - 1)));
  EXPECT_EQ(c.bytes_sent,
            16u * static_cast<std::uint64_t>(ranks * (ranks - 1)));
}

TEST(Collectives, ScanIsAChain) {
  const Rank ranks = 6;
  const Trace expanded = expand_collectives(
      single_collective(ranks, CollectiveKind::kScan, 0, 24));
  EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u);
  // Interior ranks relay once; the ends send or receive only.
  const Counts c = count_p2p(expanded);
  EXPECT_EQ(c.sends, static_cast<std::size_t>(ranks - 1));
  EXPECT_EQ(c.bytes_sent, 24u * static_cast<std::uint64_t>(ranks - 1));
}

TEST(Collectives, InternalTagsAreNegativeAndUnique) {
  EXPECT_LT(collective_tag(0, 0), 0);
  std::set<trace::Tag> seen;
  for (std::int64_t seq = 0; seq < 10; ++seq) {
    for (int phase = 0; phase < 3; ++phase) {
      EXPECT_TRUE(seen.insert(collective_tag(seq, phase)).second);
    }
  }
}

TEST(Collectives, SequencesKeepOpsApart) {
  // Two back-to-back allreduces must not cross-match.
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    b.global(r, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(r, CollectiveKind::kAllreduce, 0, 8, 1);
  }
  const Trace expanded = expand_collectives(std::move(b).build());
  EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u);
  // All tags from op 0 differ from all tags of op 1.
  std::set<trace::Tag> op_tags[2];
  for (const auto& stream : expanded.ranks) {
    for (const Record& rec : stream) {
      if (const auto* send = std::get_if<Send>(&rec)) {
        // Tag encodes the sequence; segregate by magnitude.
        op_tags[(-send->tag - 1) / 16].insert(send->tag);
      }
    }
  }
  for (const trace::Tag t : op_tags[0]) {
    EXPECT_EQ(op_tags[1].count(t), 0u);
  }
}

TEST(Collectives, RequestIdsAvoidAppIds) {
  // A rank already using request id 7 must not have it reused by the
  // alltoall expansion.
  TraceBuilder b(3, 1000.0);
  b.irecv(0, 1, 5, 8, 7);
  b.send(1, 0, 5, 8);
  b.wait(0, {7});
  for (Rank r = 0; r < 3; ++r) {
    b.global(r, CollectiveKind::kAlltoall, 0, 8, 0);
  }
  const Trace expanded = expand_collectives(std::move(b).build());
  EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u);
}

TEST(Collectives, SingleRankIsNoOp) {
  const Trace expanded = expand_collectives(
      single_collective(1, CollectiveKind::kAllreduce, 0, 64));
  EXPECT_EQ(expanded.total_records(), 0u);
}

TEST(Collectives, PreservesSurroundingRecords) {
  TraceBuilder b(2, 1000.0);
  for (Rank r = 0; r < 2; ++r) {
    b.compute(r, 100).global(r, CollectiveKind::kBarrier, 0, 0, 0).compute(
        r, 200);
  }
  const Trace expanded = expand_collectives(std::move(b).build());
  EXPECT_EQ(expanded.total_instructions(0), 300u);
  EXPECT_EQ(expanded.total_instructions(1), 300u);
}

// --- alternative algorithms --------------------------------------------------

TEST(CollectiveAlgos, Names) {
  EXPECT_STREQ(collective_algo_name(CollectiveAlgo::kBinomialTree),
               "binomial-tree");
  EXPECT_STREQ(collective_algo_name(CollectiveAlgo::kLinear), "linear");
  EXPECT_STREQ(collective_algo_name(CollectiveAlgo::kRecursiveDoubling),
               "recursive-doubling");
}

TEST(CollectiveAlgos, AllAlgorithmsValidate) {
  for (const CollectiveAlgo algo :
       {CollectiveAlgo::kBinomialTree, CollectiveAlgo::kLinear,
        CollectiveAlgo::kRecursiveDoubling}) {
    for (const CollectiveKind kind :
         {CollectiveKind::kBarrier, CollectiveKind::kBcast,
          CollectiveKind::kReduce, CollectiveKind::kAllreduce,
          CollectiveKind::kGather, CollectiveKind::kScatter,
          CollectiveKind::kAllgather, CollectiveKind::kAlltoall}) {
      for (const Rank ranks : {2, 3, 4, 7, 8, 16}) {
        const Trace expanded = expand_collectives(
            single_collective(ranks, kind, ranks > 2 ? 1 : 0, 64), algo);
        EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u)
            << collective_algo_name(algo) << " " << collective_name(kind)
            << " over " << ranks << " ranks";
      }
    }
  }
}

TEST(CollectiveAlgos, LinearBcastIsAStar) {
  const Trace expanded = expand_collectives(
      single_collective(8, CollectiveKind::kBcast, 2, 100),
      CollectiveAlgo::kLinear);
  // The root sends 7 messages; every other rank sends none.
  std::size_t root_sends = 0;
  for (const Record& rec : expanded.ranks[2]) {
    root_sends += std::holds_alternative<Send>(rec);
  }
  EXPECT_EQ(root_sends, 7u);
  for (const Rank r : {0, 1, 3, 4, 5, 6, 7}) {
    for (const Record& rec : expanded.ranks[static_cast<std::size_t>(r)]) {
      EXPECT_FALSE(std::holds_alternative<Send>(rec));
    }
  }
}

TEST(CollectiveAlgos, LinearGatherCarriesOwnPayloadOnly) {
  const Trace expanded = expand_collectives(
      single_collective(8, CollectiveKind::kGather, 0, 10),
      CollectiveAlgo::kLinear);
  // Every non-root rank sends exactly its own 10 bytes straight to the root.
  for (Rank r = 1; r < 8; ++r) {
    std::uint64_t sent = 0;
    for (const Record& rec : expanded.ranks[static_cast<std::size_t>(r)]) {
      if (const auto* send = std::get_if<Send>(&rec)) sent += send->bytes;
    }
    EXPECT_EQ(sent, 10u);
  }
}

TEST(CollectiveAlgos, DisseminationBarrierRounds) {
  // 8 ranks: each rank sends exactly ceil(log2(8)) = 3 messages.
  const Trace expanded = expand_collectives(
      single_collective(8, CollectiveKind::kBarrier, 0, 0),
      CollectiveAlgo::kRecursiveDoubling);
  for (const auto& stream : expanded.ranks) {
    std::size_t sends = 0;
    for (const Record& rec : stream) {
      sends += std::holds_alternative<Send>(rec);
    }
    EXPECT_EQ(sends, 3u);
  }
}

TEST(CollectiveAlgos, RecursiveDoublingAllgatherDoublesBlocks) {
  const Trace expanded = expand_collectives(
      single_collective(8, CollectiveKind::kAllgather, 0, 16),
      CollectiveAlgo::kRecursiveDoubling);
  // Round payloads per rank: 16, 32, 64 (1, 2, 4 blocks).
  std::vector<std::uint64_t> sizes;
  for (const Record& rec : expanded.ranks[0]) {
    if (const auto* send = std::get_if<Send>(&rec)) {
      sizes.push_back(send->bytes);
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{16, 32, 64}));
}

TEST(CollectiveAlgos, TwoRankDissemination) {
  // P = 2 is the degenerate case where src == dst for the single round.
  const Trace expanded = expand_collectives(
      single_collective(2, CollectiveKind::kAllreduce, 0, 8),
      CollectiveAlgo::kRecursiveDoubling);
  EXPECT_EQ(lint::check_structure(expanded).num_errors(), 0u);
}

TEST(CollectiveAlgos, ReplayTimingOrder) {
  // Barrier cost depends on the endpoint model. With zero per-message
  // overhead (pure linear model), the flat star costs 2 latencies total
  // and beats everything; with a realistic LogGP-style overhead the root
  // serializes P-1 messages and the log-round algorithms win. Both
  // regimes are checked.
  const Rank ranks = 16;
  trace::TraceBuilder b(ranks, 1000.0);
  for (Rank r = 0; r < ranks; ++r) {
    for (int i = 0; i < 4; ++i) {
      b.global(r, CollectiveKind::kBarrier, 0, 0, i);
    }
  }
  const Trace t = std::move(b).build();
  Platform p;
  p.num_nodes = ranks;
  p.bandwidth_MBps = 100.0;
  p.latency_us = 20.0;
  auto time_with = [&](CollectiveAlgo algo) {
    ReplayOptions options;
    options.collective_algo = algo;
    return replay(t, p, options).makespan;
  };
  // Zero-overhead regime: star = 2L per barrier, dissemination = log2(P)*L,
  // tree = 2*log2(P)*L.
  const double linear0 = time_with(CollectiveAlgo::kLinear);
  const double dissemination0 =
      time_with(CollectiveAlgo::kRecursiveDoubling);
  EXPECT_LT(linear0, dissemination0);

  // Substantial endpoint overhead: the star's root serializes 15 sends
  // and 15 receives at 20 us each; the log-round algorithms now win
  // clearly.
  p.per_message_overhead_us = 20.0;
  const double tree = time_with(CollectiveAlgo::kBinomialTree);
  const double linear = time_with(CollectiveAlgo::kLinear);
  const double dissemination =
      time_with(CollectiveAlgo::kRecursiveDoubling);
  EXPECT_LT(tree, linear);
  EXPECT_LT(dissemination, linear);
}

}  // namespace
}  // namespace osim::dimemas
