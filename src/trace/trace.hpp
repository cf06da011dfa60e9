// The replayable trace: per-rank record streams plus the metadata the
// replay simulator needs (rank count, MIPS rate used to convert instruction
// counts into seconds — the paper's tracer "obtains time-stamps by scaling
// the number of executed instructions by the average MIPS rate").
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace osim::trace {

/// The most ranks a trace may declare, in any format.
inline constexpr std::uint64_t kMaxRanks = 1'000'000;

/// The header rules every trace format (text, annotated, binary) checks
/// before it builds a trace, so no input reaches the OSIM_CHECKs of
/// Trace::make and AnnotatedTrace::make: a rank count in [1, kMaxRanks]
/// and a finite MIPS rate above zero.
inline bool valid_rank_count(std::uint64_t ranks) {
  return ranks >= 1 && ranks <= kMaxRanks;
}
inline bool valid_mips(double mips) {
  return std::isfinite(mips) && mips > 0.0;
}

struct Trace {
  std::int32_t num_ranks = 0;
  double mips = 1000.0;  // millions of instructions per second
  std::string app;       // application name (informational)
  std::vector<std::vector<Record>> ranks;

  /// Creates an empty trace with `num_ranks` empty record streams.
  static Trace make(std::int32_t num_ranks, double mips,
                    std::string app = "");

  /// Total number of records across all ranks.
  std::size_t total_records() const;

  /// Sum of CpuBurst instructions on `rank`.
  std::uint64_t total_instructions(Rank rank) const;

  /// Total bytes sent from `rank` via point-to-point records.
  std::uint64_t total_p2p_bytes_sent(Rank rank) const;
};

/// Fluent builder used by tests and by the overlap transformation to
/// assemble per-rank record streams.
class TraceBuilder {
 public:
  TraceBuilder(std::int32_t num_ranks, double mips, std::string app = "");

  TraceBuilder& compute(Rank rank, std::uint64_t instructions);
  TraceBuilder& send(Rank rank, Rank dest, Tag tag, std::uint64_t bytes);
  TraceBuilder& isend(Rank rank, Rank dest, Tag tag, std::uint64_t bytes,
                      ReqId request);
  TraceBuilder& recv(Rank rank, Rank src, Tag tag, std::uint64_t bytes);
  TraceBuilder& irecv(Rank rank, Rank src, Tag tag, std::uint64_t bytes,
                      ReqId request);
  TraceBuilder& wait(Rank rank, std::vector<ReqId> requests);
  TraceBuilder& global(Rank rank, CollectiveKind kind, Rank root,
                       std::uint64_t bytes, std::int64_t sequence);

  Trace build() &&;
  const Trace& peek() const { return trace_; }

 private:
  std::vector<Record>& stream(Rank rank);
  Trace trace_;
};

}  // namespace osim::trace
