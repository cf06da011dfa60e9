// Global send↔recv pairing over an annotated trace.
//
// The overlap transformation rewrites each side of a message independently
// (one trace per rank, as the paper's per-process Valgrind instances do),
// but chunking is only valid when *both* sides agree: the send and its
// matching recv must both be tracked, have the same element count, and use
// deterministic matching. This pre-pass pairs messages by MPI ordering
// (k-th send from src to dst with tag t matches the k-th such recv) and
// computes, per event, the agreed chunk count and the per-pair ordinal used
// to derive collision-free chunk tags.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "overlap/options.hpp"
#include "trace/annotated.hpp"

namespace osim::overlap {

struct EventPlan {
  /// 0 → leave this event unchunked; otherwise the agreed chunk count.
  int chunks = 0;
  /// Ordinal of this chunked message among chunked messages with the same
  /// (src, dst, tag), identical on both sides; used for chunk tags.
  std::int64_t pair_seq = -1;
};

struct Pairing {
  /// plans[rank][event_index]; non-p2p events have default EventPlan.
  std::vector<std::vector<EventPlan>> plans;
};

/// Throws osim::Error if point-to-point traffic cannot be paired (count or
/// size mismatch per (src, dst, tag)). Chunking splits a send and its
/// receive alike, so this is stricter than lint::check_structure, which
/// lets a receive buffer exceed its send.
Pairing pair_messages(const trace::AnnotatedTrace& trace,
                      const OverlapOptions& options);

/// Collision-free tag for chunk `chunk_index` of the `pair_seq`-th chunked
/// message with original tag `tag`. Application tags must be < 2^28,
/// pair_seq < 2^24, chunk_index < 2^8.
trace::Tag chunk_tag(trace::Tag tag, std::int64_t pair_seq, int chunk_index);

/// Inverse of chunk_tag. The original tag, per-pair ordinal and chunk index
/// encoded in a derived chunk tag, or nullopt when `tag` is a plain
/// application tag (chunk tags carry a marker bit application tags cannot).
struct ChunkTagParts {
  trace::Tag tag = 0;
  std::int64_t pair_seq = 0;
  int chunk_index = 0;
};
std::optional<ChunkTagParts> decode_chunk_tag(trace::Tag tag);

}  // namespace osim::overlap
