#include "trace/soa.hpp"

#include <variant>

#include "common/expect.hpp"
#include "trace/request_slots.hpp"

namespace osim::trace {

namespace {

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
