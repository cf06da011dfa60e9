// Seeded random replayable traces shared by the property tests (fuzz_test)
// and the structural-checker differential test (structure_test).
#pragma once

#include <cstdint>
#include <iterator>
#include <utility>

#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace osim::fuzz {

/// Builds a random but deadlock-free trace: a sequence of global "rounds",
/// each either a collective or a set of pairwise exchanges done with
/// pre-posted irecvs (always safe under rendezvous).
inline trace::Trace random_trace(std::uint64_t seed) {
  using trace::Rank;
  Rng rng(seed);
  const Rank ranks = static_cast<Rank>(2 + rng.below(7));  // 2..8
  trace::TraceBuilder b(ranks, 500.0 + rng.uniform() * 4000.0);
  const int rounds = static_cast<int>(1 + rng.below(12));
  trace::ReqId next_req = 0;
  for (int round = 0; round < rounds; ++round) {
    for (Rank r = 0; r < ranks; ++r) {
      if (rng.below(3) != 0) {
        b.compute(r, 1 + rng.below(200'000));
      }
    }
    if (rng.below(3) == 0) {
      // Collective round.
      static constexpr trace::CollectiveKind kKinds[] = {
          trace::CollectiveKind::kBarrier, trace::CollectiveKind::kBcast,
          trace::CollectiveKind::kReduce, trace::CollectiveKind::kAllreduce,
          trace::CollectiveKind::kGather, trace::CollectiveKind::kScatter,
          trace::CollectiveKind::kAllgather,
          trace::CollectiveKind::kAlltoall};
      const auto kind = kKinds[rng.below(std::size(kKinds))];
      const Rank root = static_cast<Rank>(rng.below(
          static_cast<std::uint64_t>(ranks)));
      const std::uint64_t bytes = 8u << rng.below(10);
      for (Rank r = 0; r < ranks; ++r) {
        b.global(r, kind, root, bytes, round);
      }
    } else {
      // Pairwise-exchange round over a random shift.
      const Rank shift = static_cast<Rank>(
          1 + rng.below(static_cast<std::uint64_t>(ranks - 1)));
      const std::uint64_t bytes = 64u << rng.below(12);  // 64 B .. 128 KB
      const int tag = round;
      for (Rank r = 0; r < ranks; ++r) {
        const Rank to = static_cast<Rank>((r + shift) % ranks);
        const Rank from = static_cast<Rank>((r - shift + ranks) % ranks);
        const trace::ReqId req = next_req + r;
        b.irecv(r, from, tag, bytes, req);
        b.send(r, to, tag, bytes);
        b.wait(r, {req});
      }
      next_req += ranks;
    }
  }
  return std::move(b).build();
}

}  // namespace osim::fuzz
