// Struct-of-arrays record streams for the replay inner loop.
//
// The canonical trace stores records as std::vector<std::variant<...>>:
// ~48 bytes per record whatever its kind, a discriminator buried mid-line,
// and Wait's request list on a separate heap block. The replay interpreter
// touches every record exactly once, in order, so it wants the opposite
// layout: one dense kind byte per record and per-field arrays per lane, so
// walking a stream reads consecutive cache lines and dispatch is a byte
// compare instead of variant machinery.
//
// compile() lowers a validated, collective-free trace (GlobalOps must have
// been expanded) into that layout. It is a one-pass O(records) copy into
// exactly-sized lanes. The canonical Trace remains the source of truth —
// the compiled form is a derived view of it, built once per lowering
// (dimemas::lower, shared by every replay of a pipeline::ReplayContext
// family) and never outliving the trace it was built from. Because it can
// stay resident for as long as its contexts live, it keeps no per-record
// index into the lanes and no immediate flags: the interpreter walks each
// lane with its own cursor (records of one kind appear in lane order), and
// an operation is immediate exactly when its request slot is not
// kNoRequestSlot.
//
// Request ids are renumbered per rank to dense slots 0..request_slots-1
// by trace::RequestSlots (trace/request_slots.hpp, the same table the
// structural check's requests pass keys its per-request state by), in
// first-appearance order over the immediate sends, immediate receives and
// waits of the stream, so the replay keeps request states in a flat array
// instead of a hash map keyed by arbitrary 64-bit ids. The mapping is a
// bijection: a reused id keeps its slot and an id that only a Wait names
// gets one of its own, so the replay's duplicate-request and
// unknown-request checks see exactly what they saw on the raw ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/request_slots.hpp"
#include "trace/trace.hpp"

namespace osim::trace {

enum class LaneKind : std::uint8_t { kCpu = 0, kSend = 1, kRecv = 2, kWait = 3 };

/// Number of lanes (LaneKind values).
inline constexpr std::size_t kLaneKinds = 4;

/// One rank's record stream, lowered field-by-field. `kind[i]` selects the
/// lane of record i; the n-th record of a kind is entry n of its lane.
struct CompiledStream {
  std::vector<LaneKind> kind;

  // CpuBurst lane.
  std::vector<std::uint64_t> burst_instructions;

  // Send lane (one array per field).
  std::vector<Rank> send_dest;
  std::vector<Tag> send_tag;
  std::vector<std::uint64_t> send_bytes;
  std::vector<std::uint32_t> send_request;  // dense slot of an isend;
                                            // kNoRequestSlot if blocking
  std::vector<std::uint8_t> send_synchronous;

  // Recv lane.
  std::vector<Rank> recv_src;
  std::vector<Tag> recv_tag;
  std::vector<std::uint64_t> recv_bytes;
  std::vector<std::uint32_t> recv_request;  // as send_request

  // Wait lane: request lists flattened into one array; wait w waits on
  // wait_requests[wait_begin[w] .. wait_begin[w + 1]).
  std::vector<std::uint32_t> wait_begin;  // wait_count + 1 entries
  std::vector<std::uint32_t> wait_requests;  // dense slots

  /// Distinct request ids of the stream (slots are 0..request_slots-1).
  std::uint32_t request_slots = 0;

  std::size_t records() const { return kind.size(); }
};

struct CompiledTrace {
  std::vector<CompiledStream> ranks;
};

/// Lowers every rank stream. Throws osim::Error if the trace still
/// contains GlobalOp records (expand collectives first).
CompiledTrace compile(const Trace& trace);

}  // namespace osim::trace
