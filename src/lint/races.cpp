#include "lint/races.hpp"

#include <algorithm>
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

bool is_wildcard_recv(const Record& rec) {
  const auto* recv = std::get_if<Recv>(&rec);
  return recv != nullptr && recv->src == trace::kAnyRank;
}

/// The sends a wildcard receive's rivals are drawn from: per destination
/// rank that posts a wildcard receive, the well-formed sends to it in
/// (source, record) order. Empty when the trace has no wildcard receive.
std::vector<std::vector<SendSite>> wildcard_rivals(const trace::Trace& trace) {
  const auto n = static_cast<std::size_t>(trace.num_ranks);
  std::vector<bool> has_wildcard(n, false);
  bool any = false;
  for (std::size_t r = 0; r < n; ++r) {
    for (const Record& rec : trace.ranks[r]) {
      if (is_wildcard_recv(rec)) {
        has_wildcard[r] = any = true;
        break;
      }
    }
  }
  if (!any) return {};
  std::vector<std::vector<SendSite>> sends_to(n);
  for (Rank r = 0; r < trace.num_ranks; ++r) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto* send = std::get_if<Send>(&stream[i]);
      if (send == nullptr) continue;
      if (send->dest < 0 || send->dest >= trace.num_ranks ||
          send->dest == r) {
        continue;  // the match pass reports malformed endpoints
      }
      const auto dst = static_cast<std::size_t>(send->dest);
      if (!has_wildcard[dst]) continue;
      sends_to[dst].push_back(SendSite{
          r, i, SendEnvelope{r, send->dest, send->tag, send->bytes}});
    }
  }
  return sends_to;
}

/// One warning per wildcard receive whose match could have gone to a
/// different source; the first alternative candidate is the witness.
void check_wildcard_races(const trace::Trace& trace, const HbAnalysis& hb,
                          Report& report) {
  const std::vector<std::vector<SendSite>> sends_to = wildcard_rivals(trace);
  if (sends_to.empty()) return;

  for (const HbMatch& match : hb.matches) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(match.dst)];
    const auto* recv = std::get_if<Recv>(&stream[match.recv_record]);
    if (recv == nullptr || recv->src != trace::kAnyRank) continue;
    const RecvEnvelope recv_env{recv->src, match.dst, recv->tag,
                                recv->bytes};
    const VectorClock matched_post = hb.post(match.src, match.send_record);
    const VectorClock recv_done =
        hb.completion(match.dst, match.recv_record);
    for (const SendSite& other :
         sends_to[static_cast<std::size_t>(match.dst)]) {
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

/// A blocking operation that aliases an in-flight immediate operation's
/// envelope before its wait retires the request.
struct BufferReuse {
  Rank rank = -1;
  std::size_t record = 0;  // the blocking operation
  bool is_send = false;
  Rank peer = -1;
  trace::Tag tag = 0;
  std::size_t in_flight_record = 0;  // the aliased immediate operation
  ReqId request = 0;
};

/// Per-rank scan for buffer-reuse sites, in (rank, record) order.
std::vector<BufferReuse> buffer_reuse_sites(const trace::Trace& trace) {
  struct InFlight {
    std::size_t record = 0;
    bool is_send = false;
    Rank peer = -1;
    trace::Tag tag = 0;
  };
  std::vector<BufferReuse> sites;
  for (Rank r = 0; r < trace.num_ranks; ++r) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(r)];
    std::map<ReqId, InFlight> in_flight;
    // The first in-flight request (by id) that a blocking operation on
    // (is_send, peer, tag) at record i aliases.
    const auto alias = [&](std::size_t i, bool is_send, Rank peer,
                           trace::Tag tag) {
      for (const auto& [req, op] : in_flight) {
        if (op.is_send != is_send || op.peer != peer || op.tag != tag) {
          continue;
        }
        sites.push_back(
            BufferReuse{r, i, is_send, peer, tag, op.record, req});
        return;
      }
    };
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* send = std::get_if<Send>(&rec)) {
        if (!send->immediate) {
          alias(i, true, send->dest, send->tag);
        } else if (send->request != trace::kNoRequest) {
          in_flight[send->request] =
              InFlight{i, true, send->dest, send->tag};
        }
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (!recv->immediate) {
          alias(i, false, recv->src, recv->tag);
        } else if (recv->request != trace::kNoRequest) {
          in_flight[recv->request] =
              InFlight{i, false, recv->src, recv->tag};
        }
      } else if (const auto* wait = std::get_if<Wait>(&rec)) {
        for (const ReqId req : wait->requests) in_flight.erase(req);
      }
    }
  }
  return sites;
}

void check_buffer_reuse(const trace::Trace& trace, const HbAnalysis& hb,
                        Report& report) {
  for (const BufferReuse& site : buffer_reuse_sites(trace)) {
    report.add(Diagnostic{
        Severity::kWarning, kPass, "buffer-reuse", site.rank,
        static_cast<std::ptrdiff_t>(site.record),
        strprintf("blocking %s %s rank %d tag %lld reuses the envelope of "
                  "the immediate %s posted at record %zu (request %lld) "
                  "before its wait: the buffer may still be in flight",
                  site.is_send ? "send" : "receive",
                  site.is_send ? "to" : "from", site.peer,
                  static_cast<long long>(site.tag),
                  site.is_send ? "send" : "receive", site.in_flight_record,
                  static_cast<long long>(site.request)),
        strprintf("post %s",
                  clock_to_string(hb.post(site.rank, site.record)).c_str())});
  }
}

}  // namespace

void check_races(const trace::Trace& trace, const HbAnalysis& hb,
                 Report& report) {
  check_wildcard_races(trace, hb, report);
  check_buffer_reuse(trace, hb, report);
}

void declare_race_clock_reads(const trace::Trace& trace, HbPoints& points) {
  for (const BufferReuse& site : buffer_reuse_sites(trace)) {
    points.add(site.rank, site.record, kPostClock);
  }
  const std::vector<std::vector<SendSite>> sends_to = wildcard_rivals(trace);
  if (sends_to.empty()) return;
  for (Rank dst = 0; dst < trace.num_ranks; ++dst) {
    const auto idx = static_cast<std::size_t>(dst);
    // Per tag, the largest wildcard receive: a send matches some wildcard
    // receive of `dst` iff it matches one of these (a larger buffer
    // accepts whatever a smaller one does).
    std::map<trace::Tag, RecvEnvelope> largest;
    const auto& stream = trace.ranks[idx];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (!is_wildcard_recv(stream[i])) continue;
      const auto& recv = std::get<Recv>(stream[i]);
      points.add(dst, i, kPostClock | kCompletionClock);
      RecvEnvelope& env = largest.try_emplace(recv.tag, RecvEnvelope{
          recv.src, dst, recv.tag, recv.bytes}).first->second;
      env.bytes = std::max(env.bytes, recv.bytes);
    }
    for (const SendSite& send : sends_to[idx]) {
      for (const auto& [tag, env] : largest) {
        if (envelope_matches(env, send.env)) {
          points.add(send.src, send.record, kPostClock);
          break;
        }
      }
    }
  }
}

}  // namespace osim::lint
