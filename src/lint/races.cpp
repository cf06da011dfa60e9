#include "lint/races.hpp"

#include <cstddef>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "common/strings.hpp"
#include "dimemas/matching.hpp"

namespace osim::lint {

namespace {

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

constexpr const char* kPass = "races";

struct SendSite {
  Rank src = -1;
  std::size_t record = 0;
  SendEnvelope env;
};

bool clocks_known(const VectorClock& a, const VectorClock& b) {
  return !a.empty() && !b.empty();
}

/// One warning per wildcard receive whose match could have gone to a
/// different source; the first alternative candidate is the witness.
void check_wildcard_races(const trace::Trace& trace, const HbAnalysis& hb,
                          Report& report) {
  std::vector<SendSite> sends;
  for (Rank r = 0; r < trace.num_ranks; ++r) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto* send = std::get_if<Send>(&stream[i]);
      if (send == nullptr) continue;
      if (send->dest < 0 || send->dest >= trace.num_ranks ||
          send->dest == r) {
        continue;  // the match pass reports malformed endpoints
      }
      sends.push_back(SendSite{
          r, i, SendEnvelope{r, send->dest, send->tag, send->bytes}});
    }
  }

  for (const HbMatch& match : hb.matches) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(match.dst)];
    const auto* recv = std::get_if<Recv>(&stream[match.recv_record]);
    if (recv == nullptr || recv->src != trace::kAnyRank) continue;
    const RecvEnvelope recv_env{recv->src, match.dst, recv->tag,
                                recv->bytes};
    const VectorClock matched_post = hb.post(match.src, match.send_record);
    const VectorClock recv_done =
        hb.completion(match.dst, match.recv_record);
    for (const SendSite& other : sends) {
      if (other.src == match.src) continue;  // non-overtaking: no race
      if (!envelope_matches(recv_env, other.env)) continue;
      const VectorClock other_post = hb.post(other.src, other.record);
      if (!clocks_known(matched_post, other_post)) continue;
      if (!hb_concurrent(other_post, matched_post)) continue;
      // A candidate the receive's completion happens-before can never
      // reach this receive in any execution.
      if (hb_before(recv_done, other_post)) continue;
      report.add(Diagnostic{
          Severity::kWarning, kPass, "wildcard-race", match.dst,
          static_cast<std::ptrdiff_t>(match.recv_record),
          strprintf("wildcard receive matched the send from rank %d "
                    "(record %zu) but the concurrent send from rank %d "
                    "(record %zu) also matches: message order is "
                    "nondeterministic",
                    match.src, match.send_record, other.src, other.record),
          strprintf("recv post %s; matched send post %s; rival send post %s",
                    clock_to_string(hb.post(match.dst, match.recv_record))
                        .c_str(),
                    clock_to_string(matched_post).c_str(),
                    clock_to_string(other_post).c_str())});
      break;  // one finding per receive keeps the report readable
    }
  }
}

/// Per-rank scan for blocking operations that alias an in-flight immediate
/// operation's envelope before its wait retires the request.
void check_buffer_reuse(const trace::Trace& trace, const HbAnalysis& hb,
                        Report& report) {
  struct InFlight {
    std::size_t record = 0;
    bool is_send = false;
    Rank peer = -1;
    trace::Tag tag = 0;
  };
  for (Rank r = 0; r < trace.num_ranks; ++r) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
    std::map<ReqId, InFlight> in_flight;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* send = std::get_if<Send>(&rec)) {
        if (!send->immediate) {
          for (const auto& [req, op] : in_flight) {
            if (!op.is_send || op.peer != send->dest ||
                op.tag != send->tag) {
              continue;
            }
            report.add(Diagnostic{
                Severity::kWarning, kPass, "buffer-reuse", r,
                static_cast<std::ptrdiff_t>(i),
                strprintf("blocking send to rank %d tag %lld reuses the "
                          "envelope of the immediate send posted at record "
                          "%zu (request %lld) before its wait: the buffer "
                          "may still be in flight",
                          send->dest, static_cast<long long>(send->tag),
                          op.record, static_cast<long long>(req)),
                strprintf("post %s",
                          clock_to_string(hb.post(r, i)).c_str())});
            break;
          }
        } else if (send->request != trace::kNoRequest) {
          in_flight[send->request] =
              InFlight{i, true, send->dest, send->tag};
        }
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (!recv->immediate) {
          for (const auto& [req, op] : in_flight) {
            if (op.is_send || op.peer != recv->src || op.tag != recv->tag) {
              continue;
            }
            report.add(Diagnostic{
                Severity::kWarning, kPass, "buffer-reuse", r,
                static_cast<std::ptrdiff_t>(i),
                strprintf("blocking receive from rank %d tag %lld reuses "
                          "the envelope of the immediate receive posted at "
                          "record %zu (request %lld) before its wait: the "
                          "buffer may still be in flight",
                          recv->src, static_cast<long long>(recv->tag),
                          op.record, static_cast<long long>(req)),
                strprintf("post %s",
                          clock_to_string(hb.post(r, i)).c_str())});
            break;
          }
        } else if (recv->request != trace::kNoRequest) {
          in_flight[recv->request] =
              InFlight{i, false, recv->src, recv->tag};
        }
      } else if (const auto* wait = std::get_if<Wait>(&rec)) {
        for (const ReqId req : wait->requests) in_flight.erase(req);
      }
    }
  }
}

}  // namespace

void check_races(const trace::Trace& trace, const HbAnalysis& hb,
                 Report& report) {
  check_wildcard_races(trace, hb, report);
  check_buffer_reuse(trace, hb, report);
}

}  // namespace osim::lint
