#include "lint/overlap_hazards.hpp"

#include <cstddef>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "common/strings.hpp"

namespace osim::lint {

namespace {

using trace::CpuBurst;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

constexpr const char* kPass = "overlap";

std::string window_to_string(std::uint64_t instructions, double mips) {
  if (mips > 0.0) {
    return strprintf("%llu instruction(s), %.9g s",
                     static_cast<unsigned long long>(instructions),
                     static_cast<double>(instructions) / (mips * 1e6));
  }
  return strprintf("%llu instruction(s)",
                   static_cast<unsigned long long>(instructions));
}

}  // namespace

void check_overlap_hazards(const trace::Trace& trace, const HbAnalysis& hb,
                           Report& report) {
  struct Posted {
    std::size_t record = 0;
    std::uint64_t cum_instructions = 0;  // compute executed before the post
    bool is_send = false;
  };

  std::size_t num_immediate = 0;
  std::size_t num_zero = 0;
  std::size_t num_overlapped = 0;
  std::size_t num_unwaited = 0;
  std::uint64_t total_window = 0;

  for (Rank r = 0; r < trace.num_ranks; ++r) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
    std::map<ReqId, Posted> posted;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* burst = std::get_if<CpuBurst>(&rec)) {
        cum += burst->instructions;
      } else if (const auto* send = std::get_if<Send>(&rec)) {
        if (send->immediate && send->request != trace::kNoRequest) {
          posted[send->request] = Posted{i, cum, true};
          ++num_immediate;
        }
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (recv->immediate && recv->request != trace::kNoRequest) {
          posted[recv->request] = Posted{i, cum, false};
          ++num_immediate;
        }
      } else if (const auto* wait = std::get_if<Wait>(&rec)) {
        std::size_t nonzero_here = 0;
        std::uint64_t window_here = 0;
        for (const ReqId req : wait->requests) {
          const auto it = posted.find(req);
          if (it == posted.end()) continue;  // misuse: the requests pass
          const Posted p = it->second;
          posted.erase(it);
          const std::uint64_t window = cum - p.cum_instructions;
          if (window == 0) {
            ++num_zero;
            const VectorClock post = hb.post(r, p.record);
            report.add(Diagnostic{
                Severity::kInfo, kPass, "zero-window", r,
                static_cast<std::ptrdiff_t>(p.record),
                strprintf("immediate %s posted at record %zu is waited at "
                          "record %zu with no compute in between: zero "
                          "overlap window",
                          p.is_send ? "send" : "receive", p.record, i),
                post.empty() ? std::string()
                             : strprintf("post %s",
                                         clock_to_string(post).c_str())});
          } else {
            ++num_overlapped;
            ++nonzero_here;
            window_here += window;
            total_window += window;
          }
        }
        if (nonzero_here >= 2) {
          report.add(Diagnostic{
              Severity::kInfo, kPass, "postponed-wait", r,
              static_cast<std::ptrdiff_t>(i),
              strprintf("wait retires %zu requests with nonzero overlap "
                        "windows (%s): postponed-wait chain",
                        nonzero_here,
                        window_to_string(window_here, trace.mips).c_str()),
              {}});
        }
      }
    }
    num_unwaited += posted.size();
  }

  if (num_immediate > 0) {
    report.add(Diagnostic{
        Severity::kInfo, kPass, "overlap-summary", -1, kNoRecord,
        strprintf("%zu immediate operation(s): %zu zero-window, %zu with "
                  "overlap window (total %s), %zu never waited",
                  num_immediate, num_zero, num_overlapped,
                  window_to_string(total_window, trace.mips).c_str(),
                  num_unwaited),
        {}});
  }
}

}  // namespace osim::lint
