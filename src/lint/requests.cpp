#include "lint/requests.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/strings.hpp"
#include "trace/request_slots.hpp"

namespace osim::lint {

namespace {

using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

constexpr const char* kPass = "requests";
constexpr std::size_t kNever = static_cast<std::size_t>(-1);

/// One request id's lifecycle, at the id's dense slot.
struct ReqState {
  ReqId id = 0;
  std::size_t issue_record = 0;  // valid when issued
  std::size_t wait_record = 0;   // valid when completed
  std::size_t last_wait = kNever;  // ordinal of the last wait listing it
  bool issued = false;
  bool completed = false;
};

void add_error(Report& report, std::string code, Rank rank,
               std::ptrdiff_t record, std::string message) {
  report.add(Diagnostic{Severity::kError, kPass, std::move(code), rank,
                        record, std::move(message), {}});
}

/// The request id carried by an immediate send or receive, or nullptr for
/// any other record.
const ReqId* issued_request(const Record& rec) {
  if (const auto* send = std::get_if<Send>(&rec)) {
    return send->immediate ? &send->request : nullptr;
  }
  if (const auto* recv = std::get_if<Recv>(&rec)) {
    return recv->immediate ? &recv->request : nullptr;
  }
  return nullptr;
}

/// Every slot's issue records in ascending order (compressed rows), built
/// once per rank on the first wait that names a request not yet issued:
/// telling "waited before posted" from "never posted at all" is then a
/// binary search instead of a scan of the rest of the stream.
class IssueIndex {
 public:
  /// Indexes every immediate send and receive of `stream`, giving ids not
  /// seen yet their slots.
  IssueIndex(const std::vector<Record>& stream, trace::RequestSlots& slots) {
    std::vector<std::uint32_t> issue_slot;
    for (const Record& rec : stream) {
      if (const ReqId* request = issued_request(rec)) {
        issue_slot.push_back(slots(*request));
      }
    }
    begin_.assign(static_cast<std::size_t>(slots.count()) + 1, 0);
    for (const std::uint32_t slot : issue_slot) ++begin_[slot + 1];
    for (std::size_t s = 1; s < begin_.size(); ++s) {
      begin_[s] += begin_[s - 1];
    }
    records_.resize(issue_slot.size());
    std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
    std::size_t k = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (issued_request(stream[i]) != nullptr) {
        records_[fill[issue_slot[k++]]++] = i;
      }
    }
  }

  /// First record after `after` at which the request at `slot` is issued,
  /// or kNever.
  std::size_t next_after(std::uint32_t slot, std::size_t after) const {
    if (slot + std::size_t{1} >= begin_.size()) return kNever;
    const auto first = records_.begin() + begin_[slot];
    const auto last = records_.begin() + begin_[slot + 1];
    const auto it = std::upper_bound(first, last, after);
    return it == last ? kNever : *it;
  }

 private:
  std::vector<std::size_t> begin_;  // slot s: records_[begin_[s], begin_[s+1])
  std::vector<std::size_t> records_;
};

}  // namespace

void check_requests(const trace::Trace& trace, Report& report) {
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    check_requests_rank(trace, rank, report);
  }
}

void check_requests_rank(const trace::Trace& trace, Rank rank,
                         Report& report) {
  const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
  trace::RequestSlots slots(stream.size());
  std::vector<ReqState> states;
  std::optional<IssueIndex> issues;  // built on the first unissued wait
  const auto slot_of = [&](ReqId id) {
    const std::uint32_t slot = slots(id);
    if (slot >= states.size()) states.resize(slot + std::size_t{1});
    states[slot].id = id;
    return slot;
  };

  std::size_t waits = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Record& rec = stream[i];
    if (const auto* wait = std::get_if<Wait>(&rec)) {
      if (wait->requests.empty()) {
        add_error(report, "empty-wait", rank, static_cast<std::ptrdiff_t>(i),
                  "wait with an empty request list");
        continue;
      }
      const std::size_t ordinal = waits++;
      for (const ReqId req : wait->requests) {
        const std::uint32_t slot = slot_of(req);
        ReqState& state = states[slot];
        if (state.last_wait == ordinal) {
          add_error(report, "duplicate-in-wait", rank,
                    static_cast<std::ptrdiff_t>(i),
                    strprintf("request %lld listed twice in one wait",
                              static_cast<long long>(req)));
          continue;
        }
        state.last_wait = ordinal;
        if (!state.issued) {
          if (!issues) issues.emplace(stream, slots);
          const std::size_t later = issues->next_after(slot, i);
          if (later != kNever) {
            add_error(
                report, "wait-before-post", rank,
                static_cast<std::ptrdiff_t>(i),
                strprintf("wait on request %lld before it is posted "
                          "(posted later at record %zu)",
                          static_cast<long long>(req), later));
          } else {
            add_error(report, "wait-unknown", rank,
                      static_cast<std::ptrdiff_t>(i),
                      strprintf("wait on unknown request %lld",
                                static_cast<long long>(req)));
          }
        } else if (state.completed) {
          add_error(
              report, "double-wait", rank, static_cast<std::ptrdiff_t>(i),
              strprintf("wait on request %lld already completed by the "
                        "wait at record %zu",
                        static_cast<long long>(req), state.wait_record));
        } else {
          state.completed = true;
          state.wait_record = i;
        }
      }
      continue;
    }
    const ReqId* request = issued_request(rec);
    if (request == nullptr) continue;
    if (*request == trace::kNoRequest) {
      add_error(report, "no-request-id", rank, static_cast<std::ptrdiff_t>(i),
                strprintf("immediate %s without a request id",
                          std::holds_alternative<Send>(rec) ? "send"
                                                            : "recv"));
      continue;
    }
    ReqState& state = states[slot_of(*request)];
    if (state.issued) {
      add_error(
          report, "request-reuse", rank, static_cast<std::ptrdiff_t>(i),
          strprintf("request id %lld reused (previously issued at record %zu%s)",
                    static_cast<long long>(*request), state.issue_record,
                    state.completed ? ", already completed" : ""));
    }
    // A reused id tracks its newer issue, so a later wait resolves to it.
    state.issued = true;
    state.completed = false;
    state.issue_record = i;
  }

  std::vector<std::pair<ReqId, std::size_t>> leaked;
  for (const ReqState& state : states) {
    if (state.issued && !state.completed) {
      leaked.emplace_back(state.id, state.issue_record);
    }
  }
  std::sort(leaked.begin(), leaked.end());
  for (const auto& [req, issue_record] : leaked) {
    add_error(
        report, "leaked-request", rank,
        static_cast<std::ptrdiff_t>(issue_record),
        strprintf("request %lld is never waited: leaked at end of trace",
                  static_cast<long long>(req)));
  }
}

}  // namespace osim::lint
