#include "trace/record.hpp"

#include <sstream>

#include "common/expect.hpp"

namespace osim::trace {

const char* collective_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kBarrier:
      return "barrier";
    case CollectiveKind::kBcast:
      return "bcast";
    case CollectiveKind::kReduce:
      return "reduce";
    case CollectiveKind::kAllreduce:
      return "allreduce";
    case CollectiveKind::kGather:
      return "gather";
    case CollectiveKind::kAllgather:
      return "allgather";
    case CollectiveKind::kScatter:
      return "scatter";
    case CollectiveKind::kAlltoall:
      return "alltoall";
    case CollectiveKind::kScan:
      return "scan";
  }
  OSIM_UNREACHABLE("bad CollectiveKind");
}

std::optional<CollectiveKind> collective_from_name(std::string_view name) {
  for (auto kind = CollectiveKind::kBarrier; kind <= CollectiveKind::kScan;
       kind = static_cast<CollectiveKind>(static_cast<int>(kind) + 1)) {
    if (name == collective_name(kind)) return kind;
  }
  return std::nullopt;
}

std::string to_string(const Record& record) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& rec) {
        using T = std::decay_t<decltype(rec)>;
        if constexpr (std::is_same_v<T, CpuBurst>) {
          os << "compute(" << rec.instructions << ")";
        } else if constexpr (std::is_same_v<T, Send>) {
          os << (rec.immediate ? "isend" : "send")
             << (rec.synchronous ? "!" : "") << "(dest=" << rec.dest
             << ", tag=" << rec.tag << ", bytes=" << rec.bytes;
          if (rec.immediate) os << ", req=" << rec.request;
          os << ")";
        } else if constexpr (std::is_same_v<T, Recv>) {
          os << (rec.immediate ? "irecv" : "recv") << "(src=" << rec.src
             << ", tag=" << rec.tag << ", bytes=" << rec.bytes;
          if (rec.immediate) os << ", req=" << rec.request;
          os << ")";
        } else if constexpr (std::is_same_v<T, Wait>) {
          os << "wait(";
          for (std::size_t i = 0; i < rec.requests.size(); ++i) {
            if (i != 0) os << ", ";
            os << rec.requests[i];
          }
          os << ")";
        } else if constexpr (std::is_same_v<T, GlobalOp>) {
          os << collective_name(rec.kind) << "(root=" << rec.root
             << ", bytes=" << rec.bytes << ", seq=" << rec.sequence << ")";
        }
      },
      record);
  return os.str();
}

}  // namespace osim::trace
