// Dimemas-style trace records.
//
// A replayable trace is, per rank, a linear sequence of records:
//   CpuBurst  — computation of N instructions (converted to seconds at
//               replay time via the trace's MIPS rate and the platform's
//               relative CPU speed)
//   Send      — point-to-point transmission (blocking or immediate)
//   Recv      — point-to-point reception (blocking or immediate)
//   Wait      — completion point for one or more immediate requests
//   GlobalOp  — collective operation (decomposed into point-to-point
//               transfers at replay time; the paper: "collective
//               communication operations are performed in Dimemas without
//               assuming any collective hardware support")
//
// Tags are 64-bit because the overlap transformation derives unique chunk
// tags from (original tag, per-pair message sequence, chunk index).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace osim::trace {

using Rank = std::int32_t;
using Tag = std::int64_t;
using ReqId = std::int64_t;

inline constexpr Rank kAnyRank = -1;
inline constexpr Tag kAnyTag = -1;
inline constexpr ReqId kNoRequest = -1;

struct CpuBurst {
  std::uint64_t instructions = 0;
};

struct Send {
  Rank dest = 0;
  Tag tag = 0;
  std::uint64_t bytes = 0;
  bool immediate = false;       // true: isend — returns without completing
  ReqId request = kNoRequest;   // valid when immediate
  /// Forces the rendezvous protocol regardless of message size. Used to
  /// model executions without double buffering: the transfer cannot start
  /// until the receiver has posted the matching receive.
  bool synchronous = false;
};

struct Recv {
  Rank src = 0;  // may be kAnyRank
  Tag tag = 0;   // may be kAnyTag
  std::uint64_t bytes = 0;
  bool immediate = false;       // true: irecv
  ReqId request = kNoRequest;   // valid when immediate
};

struct Wait {
  std::vector<ReqId> requests;  // completes all listed requests
};

enum class CollectiveKind : std::uint8_t {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kScatter,
  kAlltoall,
  kScan,
};

const char* collective_name(CollectiveKind kind);
/// The kind collective_name() spells `name`, or nullopt.
std::optional<CollectiveKind> collective_from_name(std::string_view name);

struct GlobalOp {
  CollectiveKind kind = CollectiveKind::kBarrier;
  Rank root = 0;                 // meaningful for rooted collectives
  std::uint64_t bytes = 0;       // per-rank payload (element count * size)
  std::int64_t sequence = 0;     // global-op ordinal, matches across ranks
};

using Record = std::variant<CpuBurst, Send, Recv, Wait, GlobalOp>;

/// Short human-readable form, used in error messages and golden tests.
std::string to_string(const Record& record);

}  // namespace osim::trace
