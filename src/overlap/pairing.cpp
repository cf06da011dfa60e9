#include "overlap/pairing.hpp"

#include <map>
#include <tuple>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::overlap {

using trace::AnnEvent;
using trace::Rank;
using trace::Tag;

trace::Tag chunk_tag(Tag tag, std::int64_t pair_seq, int chunk_index) {
  OSIM_CHECK_MSG(tag >= 0 && tag < (Tag{1} << 28),
                 "application tag out of range for chunk tagging");
  OSIM_CHECK_MSG(pair_seq >= 0 && pair_seq < (std::int64_t{1} << 24),
                 "too many chunked messages on one (src, dst, tag)");
  OSIM_CHECK(chunk_index >= 0 && chunk_index < kMaxChunks);
  return (Tag{1} << 62) | (tag << 32) |
         (static_cast<Tag>(pair_seq) << 8) | chunk_index;
}

std::optional<ChunkTagParts> decode_chunk_tag(Tag tag) {
  if (tag < 0 || (tag & (Tag{1} << 62)) == 0) return std::nullopt;
  ChunkTagParts parts;
  parts.tag = (tag >> 32) & ((Tag{1} << 28) - 1);
  parts.pair_seq = (tag >> 8) & ((std::int64_t{1} << 24) - 1);
  parts.chunk_index = static_cast<int>(tag & 0xff);
  return parts;
}

namespace {

struct Side {
  Rank rank;
  std::size_t event_index;
  bool chunkable;
  std::uint64_t num_elements;
  std::uint64_t bytes;
};

bool is_send(const AnnEvent& ev) {
  return ev.kind == AnnEvent::Kind::kSend ||
         ev.kind == AnnEvent::Kind::kIsend;
}

bool is_recv(const AnnEvent& ev) {
  return ev.kind == AnnEvent::Kind::kRecv ||
         ev.kind == AnnEvent::Kind::kIrecv;
}

}  // namespace

Pairing pair_messages(const trace::AnnotatedTrace& trace,
                      const OverlapOptions& options) {
  Pairing pairing;
  pairing.plans.resize(static_cast<std::size_t>(trace.num_ranks));

  // FIFO queues per (src, dst, tag), built in program order per rank —
  // which is exactly MPI matching order for deterministic programs.
  using Key = std::tuple<Rank, Rank, Tag>;
  std::map<Key, std::vector<Side>> sends;
  std::map<Key, std::vector<Side>> recvs;
  bool any_wildcard = false;

  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    const auto& events = trace.ranks[static_cast<std::size_t>(rank)].events;
    pairing.plans[static_cast<std::size_t>(rank)].resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const AnnEvent& ev = events[i];
      const std::uint64_t elems =
          ev.elem_bytes > 0 ? ev.bytes / ev.elem_bytes : 0;
      if (is_send(ev)) {
        sends[{rank, ev.peer, ev.tag}].push_back(
            Side{rank, i, ev.chunkable, elems, ev.bytes});
      } else if (is_recv(ev)) {
        if (ev.peer == trace::kAnyRank || ev.tag == trace::kAnyTag) {
          any_wildcard = true;  // wildcard recvs stay unchunked
          continue;
        }
        recvs[{ev.peer, rank, ev.tag}].push_back(
            Side{rank, i, ev.chunkable, elems, ev.bytes});
      }
    }
  }

  for (auto& [key, send_list] : sends) {
    auto it = recvs.find(key);
    const std::size_t nrecv = it == recvs.end() ? 0 : it->second.size();
    if (nrecv != send_list.size()) {
      if (any_wildcard) continue;  // matched dynamically; leave unchunked
      throw Error(strprintf(
          "overlap pairing: %zu sends vs %zu recvs for src=%d dst=%d "
          "tag=%lld",
          send_list.size(), nrecv, std::get<0>(key), std::get<1>(key),
          static_cast<long long>(std::get<2>(key))));
    }
    std::int64_t pair_seq = 0;
    for (std::size_t k = 0; k < send_list.size(); ++k) {
      const Side& send = send_list[k];
      const Side& recv = it->second[k];
      if (send.bytes != recv.bytes) {
        throw Error(strprintf(
            "overlap pairing: size mismatch (%llu vs %llu bytes) on message "
            "%zu of src=%d dst=%d tag=%lld",
            static_cast<unsigned long long>(send.bytes),
            static_cast<unsigned long long>(recv.bytes), k,
            std::get<0>(key), std::get<1>(key),
            static_cast<long long>(std::get<2>(key))));
      }
      if (!send.chunkable || !recv.chunkable ||
          send.num_elements != recv.num_elements) {
        continue;
      }
      const int chunks =
          options.effective_chunks(send.num_elements, send.bytes);
      if (chunks <= 0) continue;
      EventPlan plan{chunks, pair_seq++};
      pairing.plans[static_cast<std::size_t>(send.rank)][send.event_index] =
          plan;
      pairing.plans[static_cast<std::size_t>(recv.rank)][recv.event_index] =
          plan;
    }
  }
  return pairing;
}

}  // namespace osim::overlap
