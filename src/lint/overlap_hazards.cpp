#include "lint/overlap_hazards.hpp"

#include <algorithm>
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

/// One request a wait retires.
struct Retired {
  std::size_t post = 0;      // the posting record
  std::uint64_t window = 0;  // compute between post and wait, instructions
  bool is_send = false;
};

/// Immediate operations rank r posted, and how many no wait retired.
struct Census {
  std::size_t immediate = 0;
  std::size_t unwaited = 0;
};

/// Walks rank r's stream with the pass's request bookkeeping (reuse
/// overwrites, unknown requests are skipped): `retire(wait, retired)` for
/// every request a wait retires, in wait order, and `end_wait(wait)`
/// after each wait.
template <typename Retire, typename EndWait>
Census walk_rank(const trace::Trace& trace, Rank r, Retire&& retire,
                 EndWait&& end_wait) {
  struct Posted {
    std::size_t record = 0;
    std::uint64_t cum_instructions = 0;  // compute executed before the post
    bool is_send = false;
  };
  const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
  std::map<ReqId, Posted> posted;
  std::uint64_t cum = 0;
  Census census;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Record& rec = stream[i];
    if (const auto* burst = std::get_if<CpuBurst>(&rec)) {
      cum += burst->instructions;
    } else if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate && send->request != trace::kNoRequest) {
        posted[send->request] = Posted{i, cum, true};
        ++census.immediate;
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if (recv->immediate && recv->request != trace::kNoRequest) {
        posted[recv->request] = Posted{i, cum, false};
        ++census.immediate;
      }
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      for (const ReqId req : wait->requests) {
        const auto it = posted.find(req);
        if (it == posted.end()) continue;  // misuse: the requests pass
        const Posted p = it->second;
        posted.erase(it);
        retire(i, Retired{p.record, cum - p.cum_instructions, p.is_send});
      }
      end_wait(i);
    }
  }
  census.unwaited = posted.size();
  return census;
}

/// A zero-window post chosen as an exemplar.
struct ZeroWindow {
  Rank rank = -1;
  std::size_t post = 0;
  std::size_t wait = 0;
  bool is_send = false;
};

/// The zero-window exemplars: the first kOverlapExemplarsPerCode
/// zero-window posts in (rank, record) order.
std::vector<ZeroWindow> zero_window_exemplars(const trace::Trace& trace) {
  std::vector<ZeroWindow> exemplars;
  for (Rank r = 0; r < trace.num_ranks &&
                   exemplars.size() < kOverlapExemplarsPerCode;
       ++r) {
    // Zero-window posts surface in wait order; exemplars go in post order.
    std::vector<ZeroWindow> rank_zero;
    walk_rank(
        trace, r,
        [&](std::size_t wait, const Retired& q) {
          if (q.window == 0) {
            rank_zero.push_back(ZeroWindow{r, q.post, wait, q.is_send});
          }
        },
        [](std::size_t) {});
    std::sort(rank_zero.begin(), rank_zero.end(),
              [](const ZeroWindow& a, const ZeroWindow& b) {
                return a.post < b.post;
              });
    for (const ZeroWindow& z : rank_zero) {
      if (exemplars.size() == kOverlapExemplarsPerCode) break;
      exemplars.push_back(z);
    }
  }
  return exemplars;
}

Diagnostic zero_window_exemplar(const HbAnalysis& hb, const ZeroWindow& z) {
  const VectorClock post = hb.post(z.rank, z.post);
  return Diagnostic{
      Severity::kInfo, kPass, "zero-window", z.rank,
      static_cast<std::ptrdiff_t>(z.post),
      strprintf("immediate %s posted at record %zu is waited at record %zu "
                "with no compute in between: zero overlap window",
                z.is_send ? "send" : "receive", z.post, z.wait),
      post.empty() ? std::string()
                   : strprintf("post %s", clock_to_string(post).c_str())};
}

}  // namespace

void check_overlap_hazards(const trace::Trace& trace, const HbAnalysis& hb,
                           Report& report) {
  std::size_t num_immediate = 0;
  std::size_t num_zero = 0;
  std::size_t num_overlapped = 0;
  std::size_t num_unwaited = 0;
  std::uint64_t total_window = 0;

  std::vector<Diagnostic> zero_exemplars;
  std::vector<Diagnostic> chain_exemplars;
  std::vector<Diagnostic> zero_counts;
  std::vector<Diagnostic> chain_counts;

  for (const ZeroWindow& z : zero_window_exemplars(trace)) {
    zero_exemplars.push_back(zero_window_exemplar(hb, z));
  }

  for (Rank r = 0; r < trace.num_ranks; ++r) {
    std::size_t rank_zero = 0;
    std::size_t rank_chains = 0;
    std::uint64_t rank_chain_window = 0;
    std::size_t nonzero_here = 0;  // in the current wait
    std::uint64_t window_here = 0;
    const Census census = walk_rank(
        trace, r,
        [&](std::size_t, const Retired& q) {
          if (q.window == 0) {
            ++num_zero;
            ++rank_zero;
          } else {
            ++num_overlapped;
            ++nonzero_here;
            window_here += q.window;
            total_window += q.window;
          }
        },
        [&](std::size_t wait) {
          if (nonzero_here >= 2) {
            ++rank_chains;
            rank_chain_window += window_here;
            if (chain_exemplars.size() < kOverlapExemplarsPerCode) {
              chain_exemplars.push_back(Diagnostic{
                  Severity::kInfo, kPass, "postponed-wait", r,
                  static_cast<std::ptrdiff_t>(wait),
                  strprintf("wait retires %zu requests with nonzero overlap "
                            "windows (%s): postponed-wait chain",
                            nonzero_here,
                            window_to_string(window_here, trace.mips)
                                .c_str()),
                  {}});
            }
          }
          nonzero_here = 0;
          window_here = 0;
        });
    num_immediate += census.immediate;
    num_unwaited += census.unwaited;

    if (rank_zero > 0) {
      zero_counts.push_back(Diagnostic{
          Severity::kInfo, kPass, "zero-window-count", r, kNoRecord,
          strprintf("%zu immediate operation(s) with zero overlap window",
                    rank_zero),
          {}});
    }
    if (rank_chains > 0) {
      chain_counts.push_back(Diagnostic{
          Severity::kInfo, kPass, "postponed-wait-count", r, kNoRecord,
          strprintf("%zu postponed-wait chain(s), total overlap window %s",
                    rank_chains,
                    window_to_string(rank_chain_window, trace.mips).c_str()),
          {}});
    }
  }

  for (std::vector<Diagnostic>* part :
       {&zero_exemplars, &zero_counts, &chain_exemplars, &chain_counts}) {
    for (Diagnostic& d : *part) report.add(std::move(d));
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

void declare_overlap_clock_reads(const trace::Trace& trace,
                                 HbPoints& points) {
  for (const ZeroWindow& z : zero_window_exemplars(trace)) {
    points.add(z.rank, z.post, kPostClock);
  }
}

}  // namespace osim::lint
