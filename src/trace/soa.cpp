#include "trace/soa.hpp"

#include <unordered_map>
#include <variant>

#include "common/expect.hpp"

namespace osim::trace {

namespace {

/// Renumbers one stream's request ids to dense slots in first-appearance
/// order. Recorded and transformed traces number requests with a per-rank
/// counter from 0, so an id below twice the stream length indexes a direct
/// table (bounded by the input); any other id — negative, sparse or huge —
/// goes through a hash map.
class RequestSlots {
 public:
  explicit RequestSlots(std::size_t records)
      : direct_limit_(2 * static_cast<std::uint64_t>(records) + 64) {}

  std::uint32_t operator()(ReqId id) {
    if (id >= 0 && static_cast<std::uint64_t>(id) < direct_limit_) {
      const auto index = static_cast<std::size_t>(id);
      if (index >= direct_.size()) direct_.resize(index + 1, kNoRequestSlot);
      std::uint32_t& slot = direct_[index];
      if (slot == kNoRequestSlot) slot = take();
      return slot;
    }
    const auto [it, inserted] = sparse_.try_emplace(id, kNoRequestSlot);
    if (inserted) it->second = take();
    return it->second;
  }

  std::uint32_t count() const { return next_; }

 private:
  std::uint32_t take() {
    OSIM_CHECK_MSG(next_ < kNoRequestSlot, "too many requests in one rank");
    return next_++;
  }

  std::uint64_t direct_limit_;
  std::vector<std::uint32_t> direct_;
  std::unordered_map<ReqId, std::uint32_t> sparse_;
  std::uint32_t next_ = 0;
};

CompiledStream compile_stream(const std::vector<Record>& records) {
  CompiledStream s;
  const std::size_t n = records.size();
  RequestSlots request_slot(n);
  s.kind.reserve(n);
  s.slot.reserve(n);
  s.wait_begin.push_back(0);
  for (const Record& rec : records) {
    if (const auto* burst = std::get_if<CpuBurst>(&rec)) {
      s.kind.push_back(LaneKind::kCpu);
      s.slot.push_back(static_cast<std::uint32_t>(
          s.burst_instructions.size()));
      s.burst_instructions.push_back(burst->instructions);
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      s.kind.push_back(LaneKind::kSend);
      s.slot.push_back(static_cast<std::uint32_t>(s.send_dest.size()));
      s.send_dest.push_back(send->dest);
      s.send_tag.push_back(send->tag);
      s.send_bytes.push_back(send->bytes);
      s.send_request.push_back(send->immediate ? request_slot(send->request)
                                                : kNoRequestSlot);
      s.send_immediate.push_back(send->immediate ? 1 : 0);
      s.send_synchronous.push_back(send->synchronous ? 1 : 0);
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      s.kind.push_back(LaneKind::kRecv);
      s.slot.push_back(static_cast<std::uint32_t>(s.recv_src.size()));
      s.recv_src.push_back(recv->src);
      s.recv_tag.push_back(recv->tag);
      s.recv_bytes.push_back(recv->bytes);
      s.recv_request.push_back(recv->immediate ? request_slot(recv->request)
                                                : kNoRequestSlot);
      s.recv_immediate.push_back(recv->immediate ? 1 : 0);
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      s.kind.push_back(LaneKind::kWait);
      s.slot.push_back(static_cast<std::uint32_t>(
          s.wait_begin.size() - 1));
      for (const ReqId request : wait->requests) {
        s.wait_requests.push_back(request_slot(request));
      }
      s.wait_begin.push_back(
          static_cast<std::uint32_t>(s.wait_requests.size()));
    } else {
      throw Error(
          "trace::compile: GlobalOp in record stream (expand collectives "
          "before compiling)");
    }
  }
  s.request_slots = request_slot.count();
  return s;
}

}  // namespace

CompiledTrace compile(const Trace& trace) {
  CompiledTrace compiled;
  compiled.ranks.reserve(trace.ranks.size());
  for (const std::vector<Record>& stream : trace.ranks) {
    compiled.ranks.push_back(compile_stream(stream));
  }
  return compiled;
}

}  // namespace osim::trace
