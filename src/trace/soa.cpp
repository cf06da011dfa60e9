#include "trace/soa.hpp"

#include <variant>

#include "common/expect.hpp"
#include "trace/request_slots.hpp"

namespace osim::trace {

namespace {

// The lanes outlive the replay that first needs them (a lowered program is
// shared by a context family), so they are sized exactly: one counting
// pass, then every lane is filled without reallocation or slack.
void reserve_lanes(const std::vector<Record>& records, CompiledStream& s) {
  std::size_t bursts = 0, sends = 0, recvs = 0, waits = 0, waited = 0;
  for (const Record& rec : records) {
    if (std::holds_alternative<CpuBurst>(rec)) {
      ++bursts;
    } else if (std::holds_alternative<Send>(rec)) {
      ++sends;
    } else if (std::holds_alternative<Recv>(rec)) {
      ++recvs;
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      ++waits;
      waited += wait->requests.size();
    }
  }
  s.kind.reserve(records.size());
  s.burst_instructions.reserve(bursts);
  s.send_dest.reserve(sends);
  s.send_tag.reserve(sends);
  s.send_bytes.reserve(sends);
  s.send_request.reserve(sends);
  s.send_synchronous.reserve(sends);
  s.recv_src.reserve(recvs);
  s.recv_tag.reserve(recvs);
  s.recv_bytes.reserve(recvs);
  s.recv_request.reserve(recvs);
  s.wait_begin.reserve(waits + 1);
  s.wait_requests.reserve(waited);
}

CompiledStream compile_stream(const std::vector<Record>& records) {
  CompiledStream s;
  RequestSlots request_slot(records.size());
  reserve_lanes(records, s);
  s.wait_begin.push_back(0);
  for (const Record& rec : records) {
    if (const auto* burst = std::get_if<CpuBurst>(&rec)) {
      s.kind.push_back(LaneKind::kCpu);
      s.burst_instructions.push_back(burst->instructions);
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      s.kind.push_back(LaneKind::kSend);
      s.send_dest.push_back(send->dest);
      s.send_tag.push_back(send->tag);
      s.send_bytes.push_back(send->bytes);
      s.send_request.push_back(send->immediate ? request_slot(send->request)
                                                : kNoRequestSlot);
      s.send_synchronous.push_back(send->synchronous ? 1 : 0);
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      s.kind.push_back(LaneKind::kRecv);
      s.recv_src.push_back(recv->src);
      s.recv_tag.push_back(recv->tag);
      s.recv_bytes.push_back(recv->bytes);
      s.recv_request.push_back(recv->immediate ? request_slot(recv->request)
                                                : kNoRequestSlot);
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      s.kind.push_back(LaneKind::kWait);
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
