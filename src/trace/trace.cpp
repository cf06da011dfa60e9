#include "trace/trace.hpp"

#include "common/expect.hpp"

namespace osim::trace {

Trace Trace::make(std::int32_t num_ranks, double mips, std::string app) {
  OSIM_CHECK(num_ranks > 0);
  OSIM_CHECK(mips > 0.0);
  Trace t;
  t.num_ranks = num_ranks;
  t.mips = mips;
  t.app = std::move(app);
  t.ranks.resize(static_cast<std::size_t>(num_ranks));
  return t;
}

std::size_t Trace::total_records() const {
  std::size_t n = 0;
  for (const auto& stream : ranks) n += stream.size();
  return n;
}

std::uint64_t Trace::total_instructions(Rank rank) const {
  OSIM_CHECK(rank >= 0 && rank < num_ranks);
  std::uint64_t total = 0;
  for (const auto& rec : ranks[static_cast<std::size_t>(rank)]) {
    if (const auto* burst = std::get_if<CpuBurst>(&rec)) {
      total += burst->instructions;
    }
  }
  return total;
}

std::uint64_t Trace::total_p2p_bytes_sent(Rank rank) const {
  OSIM_CHECK(rank >= 0 && rank < num_ranks);
  std::uint64_t total = 0;
  for (const auto& rec : ranks[static_cast<std::size_t>(rank)]) {
    if (const auto* send = std::get_if<Send>(&rec)) total += send->bytes;
  }
  return total;
}

TraceBuilder::TraceBuilder(std::int32_t num_ranks, double mips,
                           std::string app)
    : trace_(Trace::make(num_ranks, mips, std::move(app))) {}

std::vector<Record>& TraceBuilder::stream(Rank rank) {
  OSIM_CHECK(rank >= 0 && rank < trace_.num_ranks);
  return trace_.ranks[static_cast<std::size_t>(rank)];
}

TraceBuilder& TraceBuilder::compute(Rank rank, std::uint64_t instructions) {
  if (instructions > 0) stream(rank).push_back(CpuBurst{instructions});
  return *this;
}

TraceBuilder& TraceBuilder::send(Rank rank, Rank dest, Tag tag,
                                 std::uint64_t bytes) {
  stream(rank).push_back(Send{dest, tag, bytes, false, kNoRequest});
  return *this;
}

TraceBuilder& TraceBuilder::isend(Rank rank, Rank dest, Tag tag,
                                  std::uint64_t bytes, ReqId request) {
  stream(rank).push_back(Send{dest, tag, bytes, true, request});
  return *this;
}

TraceBuilder& TraceBuilder::recv(Rank rank, Rank src, Tag tag,
                                 std::uint64_t bytes) {
  stream(rank).push_back(Recv{src, tag, bytes, false, kNoRequest});
  return *this;
}

TraceBuilder& TraceBuilder::irecv(Rank rank, Rank src, Tag tag,
                                  std::uint64_t bytes, ReqId request) {
  stream(rank).push_back(Recv{src, tag, bytes, true, request});
  return *this;
}

TraceBuilder& TraceBuilder::wait(Rank rank, std::vector<ReqId> requests) {
  stream(rank).push_back(Wait{std::move(requests)});
  return *this;
}

TraceBuilder& TraceBuilder::global(Rank rank, CollectiveKind kind, Rank root,
                                   std::uint64_t bytes,
                                   std::int64_t sequence) {
  stream(rank).push_back(GlobalOp{kind, root, bytes, sequence});
  return *this;
}

Trace TraceBuilder::build() && { return std::move(trace_); }

}  // namespace osim::trace
