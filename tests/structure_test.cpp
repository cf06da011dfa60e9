// Differential test for the one structural checker. lint::check_structure
// replaced trace::validate(const Trace&) as the replayer's precondition;
// the old checker is kept below verbatim as the reference, and the two
// must accept and reject the same traces — on named cases, on the fuzz
// corpus and on its salvaged and mutated variants — except for exactly
// three documented classes:
//   larger-recv       a receive buffer larger than its send (the replayer's
//                     matching rule, dimemas/matching.hpp): now accepted
//   wildcard-traffic  infeasible or unmatched traffic in a trace with a
//                     wildcard receive, which the old check skipped: now
//                     rejected
//   bad-root          a collective rooted at a rank the trace does not
//                     have: now rejected
// A second reference pins the match and requests passes' diagnostics byte
// for byte: verbatim copies of the passes before their allocation-light
// rewrite, run on the bundled apps, the fuzz corpus and seeded defects.
#include <gtest/gtest.h>
#include <pthread.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dimemas/matching.hpp"
#include "dimemas/replay.hpp"
#include "lint/lint.hpp"
#include "lint/match.hpp"
#include "lint/requests.hpp"
#include "pipeline/context.hpp"
#include "pipeline/scenario.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"

#include "app_traces.hpp"
#include "random_trace.hpp"

// The structural validator as it stood before check_structure replaced it,
// copied verbatim (src/trace/trace.cpp) as the differential reference.
namespace osim::trace::old_contract {

namespace {

[[noreturn]] void fail(Rank rank, std::size_t index, const Record& rec,
                       const std::string& why) {
  throw Error(strprintf("trace validation: rank %d record %zu [%s]: %s",
                        rank, index, to_string(rec).c_str(), why.c_str()));
}

}  // namespace

void validate(const Trace& trace) {
  if (trace.num_ranks <= 0) throw Error("trace has no ranks");
  if (trace.ranks.size() != static_cast<std::size_t>(trace.num_ranks)) {
    throw Error("trace rank-stream count does not match num_ranks");
  }
  if (trace.mips <= 0.0) throw Error("trace MIPS rate must be positive");

  // (src, dest, tag) -> queue of pending byte counts, for pairwise matching.
  std::map<std::tuple<Rank, Rank, Tag>, std::vector<std::uint64_t>> sends;
  std::map<std::tuple<Rank, Rank, Tag>, std::vector<std::uint64_t>> recvs;
  bool has_wildcard = false;

  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    std::set<ReqId> open_requests;
    std::set<ReqId> used_requests;
    const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* send = std::get_if<Send>(&rec)) {
        if (send->dest < 0 || send->dest >= trace.num_ranks)
          fail(rank, i, rec, "destination rank out of range");
        if (send->dest == rank) fail(rank, i, rec, "self-send");
        if (send->immediate) {
          if (send->request == kNoRequest)
            fail(rank, i, rec, "immediate send without request id");
          if (!used_requests.insert(send->request).second)
            fail(rank, i, rec, "request id reused");
          open_requests.insert(send->request);
        }
        sends[{rank, send->dest, send->tag}].push_back(send->bytes);
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (recv->src != kAnyRank &&
            (recv->src < 0 || recv->src >= trace.num_ranks))
          fail(rank, i, rec, "source rank out of range");
        if (recv->src == rank) fail(rank, i, rec, "self-receive");
        if (recv->immediate) {
          if (recv->request == kNoRequest)
            fail(rank, i, rec, "immediate recv without request id");
          if (!used_requests.insert(recv->request).second)
            fail(rank, i, rec, "request id reused");
          open_requests.insert(recv->request);
        }
        if (recv->src == kAnyRank || recv->tag == kAnyTag) {
          has_wildcard = true;
        } else {
          recvs[{recv->src, rank, recv->tag}].push_back(recv->bytes);
        }
      } else if (const auto* wait = std::get_if<Wait>(&rec)) {
        if (wait->requests.empty())
          fail(rank, i, rec, "wait on empty request list");
        for (const ReqId req : wait->requests) {
          if (open_requests.erase(req) == 0)
            fail(rank, i, rec,
                 strprintf("wait on unknown or completed request %lld",
                           static_cast<long long>(req)));
        }
      }
      // CpuBurst and GlobalOp have no per-record structural constraints
      // beyond types; GlobalOp cross-rank agreement is checked below.
    }
    if (!open_requests.empty()) {
      throw Error(strprintf(
          "trace validation: rank %d finishes with %zu uncompleted requests",
          rank, open_requests.size()));
    }
  }

  // Pairwise matching of point-to-point traffic (skipped when wildcards are
  // present — matching is then execution-order dependent).
  if (!has_wildcard) {
    for (const auto& [key, send_sizes] : sends) {
      const auto it = recvs.find(key);
      const std::size_t nrecv = it == recvs.end() ? 0 : it->second.size();
      if (nrecv != send_sizes.size()) {
        throw Error(strprintf(
            "trace validation: %zu sends but %zu recvs for src=%d dest=%d "
            "tag=%lld",
            send_sizes.size(), nrecv, std::get<0>(key), std::get<1>(key),
            static_cast<long long>(std::get<2>(key))));
      }
      for (std::size_t i = 0; i < send_sizes.size(); ++i) {
        if (send_sizes[i] != it->second[i]) {
          throw Error(strprintf(
              "trace validation: size mismatch (%llu vs %llu bytes) on "
              "message %zu of src=%d dest=%d tag=%lld",
              static_cast<unsigned long long>(send_sizes[i]),
              static_cast<unsigned long long>(it->second[i]), i,
              std::get<0>(key), std::get<1>(key),
              static_cast<long long>(std::get<2>(key))));
        }
      }
    }
    for (const auto& [key, recv_sizes] : recvs) {
      if (sends.find(key) == sends.end()) {
        throw Error(strprintf(
            "trace validation: %zu recvs with no matching send for src=%d "
            "dest=%d tag=%lld",
            recv_sizes.size(), std::get<0>(key), std::get<1>(key),
            static_cast<long long>(std::get<2>(key))));
      }
    }
  }

  // Global ops: every rank must see the same sequence of (kind, root, seq).
  std::vector<std::vector<GlobalOp>> per_rank_ops(
      static_cast<std::size_t>(trace.num_ranks));
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    for (const auto& rec : trace.ranks[static_cast<std::size_t>(rank)]) {
      if (const auto* op = std::get_if<GlobalOp>(&rec)) {
        per_rank_ops[static_cast<std::size_t>(rank)].push_back(*op);
      }
    }
  }
  for (Rank rank = 1; rank < trace.num_ranks; ++rank) {
    const auto& a = per_rank_ops[0];
    const auto& b = per_rank_ops[static_cast<std::size_t>(rank)];
    if (a.size() != b.size()) {
      throw Error(strprintf(
          "trace validation: rank 0 has %zu global ops but rank %d has %zu",
          a.size(), rank, b.size()));
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind != b[i].kind || a[i].root != b[i].root ||
          a[i].sequence != b[i].sequence) {
        throw Error(strprintf(
            "trace validation: global op %zu disagrees between rank 0 (%s) "
            "and rank %d (%s)",
            i, collective_name(a[i].kind), rank, collective_name(b[i].kind)));
      }
    }
  }
}

}  // namespace osim::trace::old_contract

// The match and requests passes as they stood before FIFO pairing moved to
// sorted channel runs and request state to the dense request-slot table,
// copied verbatim (src/lint/match.cpp, src/lint/requests.cpp; the
// all-ranks check_requests wrapper left out) as the differential reference
// for their diagnostics.
namespace osim::lint::parent_match {
namespace {

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::kAnyRank;
using trace::kAnyTag;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::Send;
using trace::Tag;

constexpr const char* kPass = "match";

struct SendSite {
  SendEnvelope env;
  std::size_t record = 0;  // index in the sender's stream
};

struct RecvSite {
  RecvEnvelope env;
  std::size_t record = 0;  // index in the receiver's stream
};

std::string send_desc(const SendSite& site) {
  return strprintf("send to rank %d tag %lld (%llu bytes)", site.env.dst,
                   static_cast<long long>(site.env.tag),
                   static_cast<unsigned long long>(site.env.bytes));
}

std::string recv_desc(const RecvSite& site) {
  std::string src = site.env.src == kAnyRank
                        ? "ANY_SOURCE"
                        : strprintf("rank %d", site.env.src);
  std::string tag = site.env.tag == kAnyTag
                        ? "ANY_TAG"
                        : strprintf("tag %lld",
                                    static_cast<long long>(site.env.tag));
  return strprintf("recv from %s %s (%llu bytes)", src.c_str(), tag.c_str(),
                   static_cast<unsigned long long>(site.env.bytes));
}

/// Kuhn's augmenting-path maximum bipartite matching: recv index assigned
/// to each send, -1 when unmatched. Used only for destinations with
/// wildcard receives, where FIFO pairing is not defined. Each augment
/// visits the receives in index order; visited ones are skipped through a
/// path-halving "next unvisited index" array, reset per top-level augment,
/// so a level never rescans the receives deeper levels already visited.
class BipartiteMatcher {
 public:
  BipartiteMatcher(const std::vector<SendSite>& sends,
                   const std::vector<RecvSite>& recvs)
      : sends_(sends), recvs_(recvs) {
    recv_of_send_.assign(sends.size(), -1);
    send_of_recv_.assign(recvs.size(), -1);
    next_unvisited_.resize(recvs.size() + 1);
    for (std::size_t s = 0; s < sends.size(); ++s) {
      std::iota(next_unvisited_.begin(), next_unvisited_.end(),
                std::size_t{0});
      augment(s);
    }
  }

  const std::vector<std::ptrdiff_t>& recv_of_send() const {
    return recv_of_send_;
  }
  const std::vector<std::ptrdiff_t>& send_of_recv() const {
    return send_of_recv_;
  }

 private:
  /// First unvisited receive at or after `r`; recvs_.size() when none.
  std::size_t unvisited_from(std::size_t r) {
    while (next_unvisited_[r] != r) {
      next_unvisited_[r] = next_unvisited_[next_unvisited_[r]];
      r = next_unvisited_[r];
    }
    return r;
  }

  bool augment(std::size_t s) {
    for (std::size_t r = unvisited_from(0); r < recvs_.size();
         r = unvisited_from(r + 1)) {
      if (!envelope_matches(recvs_[r].env, sends_[s].env)) continue;
      next_unvisited_[r] = r + 1;  // mark visited
      if (send_of_recv_[r] < 0 ||
          augment(static_cast<std::size_t>(send_of_recv_[r]))) {
        send_of_recv_[r] = static_cast<std::ptrdiff_t>(s);
        recv_of_send_[s] = static_cast<std::ptrdiff_t>(r);
        return true;
      }
    }
    return false;
  }

  const std::vector<SendSite>& sends_;
  const std::vector<RecvSite>& recvs_;
  std::vector<std::ptrdiff_t> recv_of_send_;
  std::vector<std::ptrdiff_t> send_of_recv_;
  std::vector<std::size_t> next_unvisited_;
};

/// Deterministic FIFO pairing for a destination with no wildcard receives:
/// per (src, tag) the k-th send must pair with the k-th recv.
void check_fifo(const std::vector<SendSite>& sends,
                const std::vector<RecvSite>& recvs, Rank dst,
                Report& report) {
  std::map<std::tuple<Rank, Tag>, std::vector<const SendSite*>> send_q;
  std::map<std::tuple<Rank, Tag>, std::vector<const RecvSite*>> recv_q;
  for (const SendSite& s : sends) send_q[{s.env.src, s.env.tag}].push_back(&s);
  for (const RecvSite& r : recvs) recv_q[{r.env.src, r.env.tag}].push_back(&r);

  for (const auto& [key, sq] : send_q) {
    const auto it = recv_q.find(key);
    const std::vector<const RecvSite*> empty;
    const auto& rq = it == recv_q.end() ? empty : it->second;
    const std::size_t paired = std::min(sq.size(), rq.size());
    for (std::size_t k = 0; k < paired; ++k) {
      if (rq[k]->env.bytes < sq[k]->env.bytes) {
        report.error(
            kPass, dst, static_cast<std::ptrdiff_t>(rq[k]->record),
            strprintf("%s is smaller than its matching send (message %zu "
                      "from rank %d record %zu, %llu bytes): the pair can "
                      "never match",
                      recv_desc(*rq[k]).c_str(), k, sq[k]->env.src,
                      sq[k]->record,
                      static_cast<unsigned long long>(sq[k]->env.bytes)));
      }
    }
    for (std::size_t k = paired; k < sq.size(); ++k) {
      report.error(kPass, sq[k]->env.src,
                   static_cast<std::ptrdiff_t>(sq[k]->record),
                   strprintf("unmatched %s: rank %d posts only %zu matching "
                             "recv(s)",
                             send_desc(*sq[k]).c_str(), dst, rq.size()));
    }
    for (std::size_t k = paired; k < rq.size(); ++k) {
      report.error(kPass, dst, static_cast<std::ptrdiff_t>(rq[k]->record),
                   strprintf("unmatched %s: rank %d issues only %zu matching "
                             "send(s)",
                             recv_desc(*rq[k]).c_str(), std::get<0>(key),
                             sq.size()));
    }
  }
  for (const auto& [key, rq] : recv_q) {
    if (send_q.find(key) != send_q.end()) continue;
    for (const RecvSite* r : rq) {
      report.error(kPass, dst, static_cast<std::ptrdiff_t>(r->record),
                   strprintf("unmatched %s: no send with this envelope",
                             recv_desc(*r).c_str()));
    }
  }
}

/// Feasibility check for a destination with wildcard receives.
void check_feasibility(const std::vector<SendSite>& sends,
                       const std::vector<RecvSite>& recvs, Rank dst,
                       Report& report) {
  const BipartiteMatcher matcher(sends, recvs);
  for (std::size_t s = 0; s < sends.size(); ++s) {
    if (matcher.recv_of_send()[s] >= 0) continue;
    report.error(kPass, sends[s].env.src,
                 static_cast<std::ptrdiff_t>(sends[s].record),
                 strprintf("unmatched %s: no feasible assignment to rank "
                           "%d's recvs (wildcards present)",
                           send_desc(sends[s]).c_str(), dst));
  }
  for (std::size_t r = 0; r < recvs.size(); ++r) {
    if (matcher.send_of_recv()[r] >= 0) continue;
    report.error(kPass, dst, static_cast<std::ptrdiff_t>(recvs[r].record),
                 strprintf("unmatched %s: no feasible matching send "
                           "(wildcards present)",
                           recv_desc(recvs[r]).c_str()));
  }
}

}  // namespace

void check_matching(const trace::Trace& trace, Report& report) {
  const std::size_t n = trace.ranks.size();
  std::vector<std::vector<SendSite>> sends_to(n);   // indexed by destination
  std::vector<std::vector<RecvSite>> recvs_by(n);   // indexed by receiver
  std::vector<bool> has_wildcard(n, false);

  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* send = std::get_if<Send>(&rec)) {
        if (send->dest < 0 || send->dest >= trace.num_ranks) {
          report.error(kPass, rank, static_cast<std::ptrdiff_t>(i),
                       strprintf("send destination rank %d out of range "
                                 "[0, %d)",
                                 send->dest, trace.num_ranks));
          continue;
        }
        if (send->dest == rank) {
          report.error(kPass, rank, static_cast<std::ptrdiff_t>(i),
                       "self-send: source and destination are the same rank");
          continue;
        }
        sends_to[static_cast<std::size_t>(send->dest)].push_back(SendSite{
            SendEnvelope{rank, send->dest, send->tag, send->bytes}, i});
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (recv->src != kAnyRank &&
            (recv->src < 0 || recv->src >= trace.num_ranks)) {
          report.error(kPass, rank, static_cast<std::ptrdiff_t>(i),
                       strprintf("recv source rank %d out of range [0, %d)",
                                 recv->src, trace.num_ranks));
          continue;
        }
        if (recv->src == rank) {
          report.error(kPass, rank, static_cast<std::ptrdiff_t>(i),
                       "self-receive: source and destination are the same "
                       "rank");
          continue;
        }
        if (recv->src == kAnyRank || recv->tag == kAnyTag) {
          has_wildcard[static_cast<std::size_t>(rank)] = true;
        }
        recvs_by[static_cast<std::size_t>(rank)].push_back(RecvSite{
            RecvEnvelope{recv->src, rank, recv->tag, recv->bytes}, i});
      }
    }
  }

  for (Rank dst = 0; dst < trace.num_ranks; ++dst) {
    const std::size_t d = static_cast<std::size_t>(dst);
    if (sends_to[d].empty() && recvs_by[d].empty()) continue;
    if (has_wildcard[d]) {
      check_feasibility(sends_to[d], recvs_by[d], dst, report);
    } else {
      check_fifo(sends_to[d], recvs_by[d], dst, report);
    }
  }
}

}  // namespace osim::lint::parent_match

namespace osim::lint::parent_requests {
namespace {

using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

constexpr const char* kPass = "requests";

struct ReqState {
  std::size_t issue_record = 0;
  bool completed = false;
  std::size_t wait_record = 0;  // valid when completed
};

void add_error(Report& report, std::string code, Rank rank,
               std::ptrdiff_t record, std::string message) {
  report.add(Diagnostic{Severity::kError, kPass, std::move(code), rank,
                        record, std::move(message), {}});
}

void note_issue(std::map<ReqId, ReqState>& requests, Rank rank,
                std::size_t record, ReqId request, const char* what,
                Report& report) {
  if (request == trace::kNoRequest) {
    add_error(report, "no-request-id", rank,
              static_cast<std::ptrdiff_t>(record),
              strprintf("immediate %s without a request id", what));
    return;
  }
  const auto it = requests.find(request);
  if (it != requests.end()) {
    add_error(
        report, "request-reuse", rank, static_cast<std::ptrdiff_t>(record),
        strprintf("request id %lld reused (previously issued at record %zu%s)",
                  static_cast<long long>(request), it->second.issue_record,
                  it->second.completed ? ", already completed" : ""));
    // Track the newer issue so a later wait resolves against it.
    it->second = ReqState{record, false, 0};
    return;
  }
  requests.emplace(request, ReqState{record, false, 0});
}

/// First record at which `request` is issued strictly after `after`, or
/// npos. Distinguishes "waited before posted" from "never posted at all".
std::size_t next_issue_after(const std::vector<Record>& stream,
                             std::size_t after, ReqId request) {
  for (std::size_t i = after + 1; i < stream.size(); ++i) {
    if (const auto* send = std::get_if<Send>(&stream[i])) {
      if (send->immediate && send->request == request) return i;
    } else if (const auto* recv = std::get_if<Recv>(&stream[i])) {
      if (recv->immediate && recv->request == request) return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

void check_requests_rank(const trace::Trace& trace, Rank rank,
                         Report& report) {
  const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
  std::map<ReqId, ReqState> requests;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Record& rec = stream[i];
    if (const auto* send = std::get_if<Send>(&rec)) {
      if (send->immediate) {
        note_issue(requests, rank, i, send->request, "send", report);
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if (recv->immediate) {
        note_issue(requests, rank, i, recv->request, "recv", report);
      }
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      if (wait->requests.empty()) {
        add_error(report, "empty-wait", rank, static_cast<std::ptrdiff_t>(i),
                  "wait with an empty request list");
        continue;
      }
      std::set<ReqId> seen_here;
      for (const ReqId req : wait->requests) {
        if (!seen_here.insert(req).second) {
          add_error(report, "duplicate-in-wait", rank,
                    static_cast<std::ptrdiff_t>(i),
                    strprintf("request %lld listed twice in one wait",
                              static_cast<long long>(req)));
          continue;
        }
        const auto it = requests.find(req);
        if (it == requests.end()) {
          const std::size_t later = next_issue_after(stream, i, req);
          if (later != static_cast<std::size_t>(-1)) {
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
        } else if (it->second.completed) {
          add_error(
              report, "double-wait", rank, static_cast<std::ptrdiff_t>(i),
              strprintf("wait on request %lld already completed by the "
                        "wait at record %zu",
                        static_cast<long long>(req),
                        it->second.wait_record));
        } else {
          it->second.completed = true;
          it->second.wait_record = i;
        }
      }
    }
  }
  for (const auto& [req, state] : requests) {
    if (state.completed) continue;
    add_error(
        report, "leaked-request", rank,
        static_cast<std::ptrdiff_t>(state.issue_record),
        strprintf("request %lld is never waited: leaked at end of trace",
                  static_cast<long long>(req)));
  }
}

}  // namespace osim::lint::parent_requests

namespace osim {
namespace {

using trace::CollectiveKind;
using trace::kAnyRank;
using trace::kAnyTag;
using trace::Rank;
using trace::Record;
using trace::Trace;
using trace::TraceBuilder;

bool old_accepts(const Trace& t, std::string* why = nullptr) {
  try {
    trace::old_contract::validate(t);
    return true;
  } catch (const Error& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

bool has_wildcard_recv(const Trace& t) {
  for (const auto& stream : t.ranks) {
    for (const Record& rec : stream) {
      const auto* recv = std::get_if<trace::Recv>(&rec);
      if (recv != nullptr &&
          (recv->src == kAnyRank || recv->tag == kAnyTag)) {
        return true;
      }
    }
  }
  return false;
}

/// "agree" when the old checker and check_structure give the same verdict;
/// otherwise the documented classes that explain the difference, joined
/// with '+', or "unexplained: ..." when none does.
std::string divergence(const Trace& t) {
  std::string why;
  const bool old_ok = old_accepts(t, &why);
  const lint::Report report = lint::check_structure(t);
  const bool new_ok = report.num_errors() == 0;
  if (old_ok == new_ok) return "agree";
  if (!old_ok) {
    // The old checker stops at its first problem; the only one the new
    // contract accepts is a receive larger than its send.
    unsigned long long send_bytes = 0;
    unsigned long long recv_bytes = 0;
    const std::size_t at = why.find("size mismatch (");
    if (at != std::string::npos &&
        std::sscanf(why.c_str() + at, "size mismatch (%llu vs %llu bytes)",
                    &send_bytes, &recv_bytes) == 2 &&
        recv_bytes > send_bytes) {
      return "larger-recv";
    }
    return "unexplained: old rejects (" + why + "), check_structure accepts";
  }
  std::set<std::string> classes;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.severity != lint::Severity::kError) continue;
    if (d.pass == "match" && has_wildcard_recv(t)) {
      classes.insert("wildcard-traffic");
    } else if (d.pass == "collectives" &&
               d.message.rfind("collective root rank", 0) == 0) {
      classes.insert("bad-root");
    } else {
      return "unexplained: old accepts, check_structure rejects:\n" +
             report.render_text();
    }
  }
  return join(std::vector<std::string>(classes.begin(), classes.end()), "+");
}

// --- named cases -------------------------------------------------------------

struct Case {
  const char* name;
  Trace trace;
  bool old_accepts;
  bool new_accepts;
  std::string divergence;
};

Trace pingpong() {
  TraceBuilder b(2, 2300.0, "pingpong");
  b.compute(0, 1000).send(0, 1, 7, 4096).recv(0, 1, 8, 4096);
  b.compute(1, 500).recv(1, 0, 7, 4096).compute(1, 200).send(1, 0, 8, 4096);
  return std::move(b).build();
}

Trace ring(std::uint64_t bytes, bool pre_post) {
  TraceBuilder b(3, 1000.0);
  for (Rank r = 0; r < 3; ++r) {
    if (pre_post) b.irecv(r, (r + 2) % 3, 5, bytes, /*request=*/r);
    b.send(r, (r + 1) % 3, 5, bytes);
    if (pre_post) {
      b.wait(r, {r});
    } else {
      b.recv(r, (r + 2) % 3, 5, bytes);
    }
  }
  return std::move(b).build();
}

std::vector<Case> named_cases() {
  std::vector<Case> cases;
  const auto both = [&](const char* name, Trace t, bool accepted) {
    cases.push_back(Case{name, std::move(t), accepted, accepted, "agree"});
  };
  const auto differs = [&](const char* name, Trace t, const char* why) {
    const bool now_accepted = std::string(why) == "larger-recv";
    cases.push_back(Case{name, std::move(t), !now_accepted, now_accepted, why});
  };

  // The former Validate.* cases of trace_test.
  both("well-formed pingpong", pingpong(), true);
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 0, 1, 8);
    both("self-send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 5, 1, 8);
    both("out-of-range destination", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    both("unmatched send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    b.recv(1, 0, 1, 16);
    differs("size mismatch: 16-byte recv of an 8-byte send",
            std::move(b).build(), "larger-recv");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.wait(0, {99});
    both("wait on unknown request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5).wait(0, {5}).wait(0, {5});
    b.recv(1, 0, 1, 8);
    both("double wait", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5);
    b.recv(1, 0, 1, 8);
    both("dangling request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5).wait(0, {5}).isend(0, 1, 1, 8, 5).wait(0, {5});
    b.recv(1, 0, 1, 8).recv(1, 0, 1, 8);
    both("reused request id", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 8, 0);
    both("collective disagreement", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    both("missing collective", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.irecv(0, 1, 3, 8, 1).wait(0, {1});
    b.isend(1, 0, 3, 8, 1).wait(1, {1});
    both("immediate ops", std::move(b).build(), true);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.recv(0, kAnyRank, kAnyTag, 8);
    b.send(1, 0, 42, 8);
    both("feasible wildcard", std::move(b).build(), true);
  }

  // Shape: what the old checker tested before any record.
  {
    Trace t;
    t.num_ranks = 0;
    both("no ranks", std::move(t), false);
  }
  {
    Trace t = pingpong();
    t.mips = 0.0;
    both("zero MIPS rate", std::move(t), false);
  }
  {
    Trace t = pingpong();
    t.ranks.pop_back();
    both("fewer record streams than ranks", std::move(t), false);
  }

  // The structural fixtures of lint_test.
  {
    TraceBuilder b(2, 1000.0);
    b.compute(0, 100);
    b.send(0, 1, 7, 64);
    b.compute(1, 100);
    both("lint: unmatched send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.recv(1, 0, 9, 32);
    both("lint: unmatched recv", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 3, 128);
    b.recv(1, 0, 3, 64);
    both("lint: recv smaller than its send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(3, 1000.0);
    b.send(0, 2, 11, 256);
    b.send(1, 2, 12, 256);
    b.recv(2, kAnyRank, kAnyTag, 256);
    b.recv(2, kAnyRank, 12, 256);
    both("lint: wildcard recvs match any source and tag",
         std::move(b).build(), true);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 5, 64);
    b.recv(1, kAnyRank, kAnyTag, 64);
    b.recv(1, kAnyRank, kAnyTag, 64);
    differs("lint: infeasible wildcard assignment", std::move(b).build(),
            "wildcard-traffic");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.compute(0, 100);
    b.irecv(0, 1, 3, 64, /*request=*/5);
    b.send(1, 0, 3, 64);
    both("lint: leaked irecv request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    b.recv(1, 0, 1, 8);
    b.wait(0, {42});
    both("lint: wait on unknown request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.irecv(0, 1, 1, 8, /*request=*/0);
    b.wait(0, {0});
    b.wait(0, {0});
    b.send(1, 0, 1, 8);
    both("lint: double wait", std::move(b).build(), false);
  }
  // Deadlock is a semantic finding of lint_trace, not a structural one.
  both("lint: rendezvous send ring (deadlocks)", ring(100'000, false), true);
  both("lint: eager send ring", ring(64, false), true);
  both("lint: pre-posted irecv ring", ring(100'000, true), true);
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    b.global(1, CollectiveKind::kBcast, 0, 8, 0);
    both("lint: mismatched collective kind", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kBarrier, 0, 0, 1);
    both("lint: missing collective", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 16, 0);
    both("lint: collective payload mismatch (a warning)",
         std::move(b).build(), true);
  }
  both("lint: empty trace", Trace::make(4, 1000.0), true);
  {
    TraceBuilder b(4, 1000.0);
    for (Rank r = 0; r < 4; ++r) {
      b.compute(r, 50'000);
      b.irecv(r, (r + 3) % 4, 1, 32'768, /*request=*/7);
      b.send(r, (r + 1) % 4, 1, 32'768);
      b.wait(r, {7});
      b.global(r, CollectiveKind::kAllreduce, 0, 8, 0);
    }
    both("lint: exchange with collectives", std::move(b).build(), true);
  }

  // One named case per documented divergence.
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 7, 512);
    b.recv(1, 0, 7, 1024);
    differs("receive buffer larger than its send", std::move(b).build(),
            "larger-recv");
  }
  {
    TraceBuilder b(3, 1000.0);
    b.send(1, 0, 4, 64);
    b.recv(0, kAnyRank, 4, 64);
    b.send(2, 1, 9, 64);  // nobody receives this, wildcard or not
    differs("unmatched send beside a wildcard receive", std::move(b).build(),
            "wildcard-traffic");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBcast, 9, 64, 0);
    b.global(1, CollectiveKind::kBcast, 9, 64, 0);
    differs("collective rooted at a nonexistent rank", std::move(b).build(),
            "bad-root");
  }
  return cases;
}

TEST(StructureDifferential, NamedCases) {
  for (const Case& c : named_cases()) {
    EXPECT_EQ(old_accepts(c.trace), c.old_accepts) << c.name;
    const lint::Report report = lint::check_structure(c.trace);
    EXPECT_EQ(report.num_errors() == 0, c.new_accepts)
        << c.name << "\n" << report.render_text();
    EXPECT_EQ(divergence(c.trace), c.divergence) << c.name;
  }
}

// --- the fuzz corpus ---------------------------------------------------------

class StructureCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructureCorpus, RandomTracesAgree) {
  EXPECT_EQ(divergence(fuzz::random_trace(GetParam())), "agree");
}

TEST_P(StructureCorpus, BitFlipSalvagedTracesDifferOnlyByDocumentedClasses) {
  const Trace t = fuzz::random_trace(GetParam());
  const std::string original = trace::write_binary(t);
  Rng rng(GetParam() * 101 + 13);
  for (int round = 0; round < 64; ++round) {
    std::string bytes = original;
    const int flips = static_cast<int>(1 + rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(bytes.size());
      bytes[pos] = static_cast<char>(
          bytes[pos] ^ static_cast<char>(1u << rng.below(8)));
    }
    const Trace salvaged = trace::read_binary_recover(bytes).trace;
    const std::string d = divergence(salvaged);
    EXPECT_EQ(d.rfind("unexplained", 0), std::string::npos)
        << "round " << round << ": " << d;
  }
}

/// `t` with one record of one rank changed: a field rewritten to a nearby
/// or out-of-range value (wildcards included), or the record dropped or
/// duplicated.
Trace mutate_one_record(Trace t, Rng& rng) {
  const auto rank = static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(t.num_ranks)));
  auto& stream = t.ranks[rank];
  if (stream.empty()) return t;
  const std::size_t i = rng.below(stream.size());
  const auto some_rank = [&] {
    return static_cast<Rank>(rng.below(
               static_cast<std::uint64_t>(t.num_ranks) + 2)) - 1;
  };
  switch (rng.below(4)) {
    case 0:
      stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    case 1:
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream[i]);
      return t;
    default:
      break;
  }
  Record& rec = stream[i];
  if (auto* send = std::get_if<trace::Send>(&rec)) {
    switch (rng.below(4)) {
      case 0: send->dest = some_rank(); break;
      case 1: send->tag += 1; break;
      case 2: send->bytes = rng.below(2) == 0 ? send->bytes / 2
                                              : send->bytes * 2;
              break;
      default: send->request = rng.below(2) == 0 ? trace::kNoRequest
                                                 : send->request + 1;
    }
  } else if (auto* recv = std::get_if<trace::Recv>(&rec)) {
    switch (rng.below(4)) {
      case 0: recv->src = some_rank(); break;
      case 1: recv->tag = rng.below(2) == 0 ? kAnyTag : recv->tag + 1; break;
      case 2: recv->bytes = rng.below(2) == 0 ? recv->bytes / 2
                                              : recv->bytes * 2;
              break;
      default: recv->request = rng.below(2) == 0 ? trace::kNoRequest
                                                 : recv->request + 1;
    }
  } else if (auto* wait = std::get_if<trace::Wait>(&rec)) {
    if (rng.below(2) == 0) {
      wait->requests.push_back(wait->requests.front());
    } else {
      wait->requests.front() += 1;
    }
  } else if (auto* op = std::get_if<trace::GlobalOp>(&rec)) {
    switch (rng.below(3)) {
      case 0: op->root = some_rank() + (rng.below(2) == 0 ? 0 : 8); break;
      case 1: op->sequence += 1; break;
      default: op->kind = op->kind == CollectiveKind::kBarrier
                              ? CollectiveKind::kBcast
                              : CollectiveKind::kBarrier;
    }
  } else if (auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
    burst->instructions += 1;
  }
  return t;
}

TEST_P(StructureCorpus, OneRecordMutationsDifferOnlyByDocumentedClasses) {
  const Trace t = fuzz::random_trace(GetParam());
  Rng rng(GetParam() * 977 + 31);
  for (int round = 0; round < 64; ++round) {
    const std::string d = divergence(mutate_one_record(t, rng));
    EXPECT_EQ(d.rfind("unexplained", 0), std::string::npos)
        << "round " << round << ": " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureCorpus,
                         ::testing::Range<std::uint64_t>(1, 33));

// --- the size rule through ReplayContext -------------------------------------

dimemas::Platform two_nodes() {
  dimemas::Platform p;
  p.num_nodes = 2;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  return p;
}

TEST(StructureContract, LargerRecvReplaysWithTheSendsBytes) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 7, 512);
  b.recv(1, 0, 7, 1024);
  const pipeline::ReplayContext context(std::move(b).build(), two_nodes());
  const dimemas::SimResult result = pipeline::run_scenario(context);
  ASSERT_EQ(result.rank_stats.size(), 2u);
  EXPECT_EQ(result.rank_stats[0].bytes_sent, 512u);
  EXPECT_EQ(result.rank_stats[1].bytes_received, 512u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(StructureContract, SmallerRecvIsRejectedNamingTheRecord) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 7, 1024);
  b.compute(1, 100);
  b.recv(1, 0, 7, 512);  // rank 1 record 1
  try {
    const pipeline::ReplayContext context(std::move(b).build(), two_nodes());
    FAIL() << "a receive smaller than its send was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("ReplayContext: trace failed validation:\n", 0), 0u)
        << what;
    EXPECT_NE(what.find("error [match] rank 1 record 1: recv from rank 0 "
                        "tag 7 (512 bytes) is smaller than its matching send"),
              std::string::npos)
        << what;
  }
}

// --- match and requests against their parent passes --------------------------

/// Runs the match pass and the per-rank requests pass, and their verbatim
/// parent copies, on `t`; the rendered reports must be byte-equal. Returns
/// the current passes' report.
lint::Report expect_passes_match_parent(const Trace& t,
                                        const std::string& what) {
  lint::Report now;
  lint::Report before;
  lint::check_matching(t, now);
  lint::parent_match::check_matching(t, before);
  for (Rank r = 0; r < t.num_ranks; ++r) {
    lint::check_requests_rank(t, r, now);
    lint::parent_requests::check_requests_rank(t, r, before);
  }
  EXPECT_EQ(now.render_text(), before.render_text()) << what;
  EXPECT_EQ(now.render_json(), before.render_json()) << what;
  return now;
}

TEST(PassDifferential, BundledAppsAndTheirMutations) {
  testing_fixtures::for_each_app_trace(
      [](const std::string& app, const char* variant, std::int32_t ranks,
         const Trace& t) {
        const std::string what =
            strprintf("%s %s @%d", app.c_str(), variant, ranks);
        expect_passes_match_parent(t, what);
        Rng rng(testing_fixtures::fnv1a64(what));
        for (int round = 0; round < 4; ++round) {
          expect_passes_match_parent(mutate_one_record(t, rng),
                                     strprintf("%s round %d", what.c_str(),
                                               round));
        }
      });
}

TEST(PassDifferential, RandomTracesAndTheirMutations) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Trace t = fuzz::random_trace(seed);
    expect_passes_match_parent(t, strprintf("seed %llu",
                                            static_cast<unsigned long long>(
                                                seed)));
    Rng rng(seed * 7919 + 3);
    expect_passes_match_parent(
        mutate_one_record(t, rng),
        strprintf("mutated seed %llu", static_cast<unsigned long long>(seed)));
  }
}

/// Point-to-point and request traffic that is broken on purpose. Peers are
/// drawn from [0, ranks] plus -2 (so out-of-range and self peers occur,
/// and ANY_SOURCE too when `wildcards`), tags from a few values (ANY_TAG
/// too when `wildcards`), sizes independently of the partner's; request ids come
/// from a pool mixing small counter ids, kNoRequest, negative ids and ids
/// far above twice the stream length (the request table's hash path), and
/// waits name zero to three of them.
Trace defect_soup(std::uint64_t seed, bool wildcards) {
  Rng rng(seed);
  const auto ranks = static_cast<Rank>(2 + rng.below(4));
  const auto peer = [&]() -> Rank {
    if (wildcards && rng.below(6) == 0) return kAnyRank;
    const auto near = static_cast<Rank>(
        rng.below(static_cast<std::uint64_t>(ranks) + 1));  // [0, ranks]
    return rng.below(8) == 0 ? -2 : near;
  };
  const auto tag = [&]() -> trace::Tag {
    if (wildcards && rng.below(6) == 0) return kAnyTag;
    return static_cast<trace::Tag>(rng.below(3));
  };
  const auto bytes = [&] { return std::uint64_t{64} << rng.below(3); };
  const trace::ReqId pool[] = {0, 1, 2, 3, 4, 5, trace::kNoRequest, -7,
                               1'000'000, trace::ReqId{1} << 40};
  const auto request = [&] { return pool[rng.below(std::size(pool))]; };
  TraceBuilder b(ranks, 1000.0);
  for (Rank r = 0; r < ranks; ++r) {
    const std::uint64_t records = 10 + rng.below(40);
    for (std::uint64_t k = 0; k < records; ++k) {
      const std::uint64_t kind = rng.below(6);
      if (kind < 4) {
        // Drawn one by one: argument evaluation order is unspecified.
        const Rank other = peer();
        const trace::Tag t = tag();
        const std::uint64_t size = bytes();
        const trace::ReqId id = request();
        if (kind == 0) b.send(r, other, t, size);
        if (kind == 1) b.recv(r, other, t, size);
        if (kind == 2) b.isend(r, other, t, size, id);
        if (kind == 3) b.irecv(r, other, t, size, id);
        continue;
      }
      switch (kind) {
        case 4: {
          std::vector<trace::ReqId> ids(rng.below(4));
          for (trace::ReqId& id : ids) id = request();
          b.wait(r, std::move(ids));
          break;
        }
        default: b.compute(r, 1 + rng.below(1000));
      }
    }
  }
  return std::move(b).build();
}

TEST(PassDifferential, SeededDefectsCoverEveryFinding) {
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const bool wildcards = seed % 4 == 0;
    const lint::Report report = expect_passes_match_parent(
        defect_soup(seed, wildcards),
        strprintf("soup %llu", static_cast<unsigned long long>(seed)));
    for (const lint::Diagnostic& d : report.diagnostics()) {
      if (d.pass == "requests") {
        seen.insert(d.code);
        continue;
      }
      for (const char* finding :
           {"send destination rank", "self-send", "recv source rank",
            "self-receive", "is smaller than its matching send",
            "posts only", "issues only", "no send with this envelope",
            "no feasible assignment", "no feasible matching send"}) {
        if (d.message.find(finding) != std::string::npos) seen.insert(finding);
      }
    }
  }
  for (const char* finding :
       {"send destination rank", "self-send", "recv source rank",
        "self-receive", "is smaller than its matching send", "posts only",
        "issues only", "no send with this envelope", "no feasible assignment",
        "no feasible matching send", "no-request-id", "request-reuse",
        "empty-wait", "duplicate-in-wait", "wait-before-post", "wait-unknown",
        "double-wait", "leaked-request"}) {
    EXPECT_EQ(seen.count(finding), 1u) << "no seeded defect produced "
                                       << finding;
  }
}

// --- bounded cost on adversarial traces -------------------------------------

TEST(StructureBounds, ManyWaitsOnUnissuedRequestsStayLinearithmic) {
  // 300k waits on ids not issued yet: the first 1 in 100 is posted at the
  // end of the stream (wait-before-post), the rest never (wait-unknown).
  // Scanning the rest of the stream per such wait is quadratic (minutes);
  // ctest's TIMEOUT turns a regression into a failure.
  constexpr trace::ReqId kWaits = 300'000;
  TraceBuilder b(2, 1000.0);
  for (trace::ReqId id = 0; id < kWaits; ++id) b.wait(0, {id});
  for (trace::ReqId id = 0; id < kWaits; id += 100) {
    b.isend(0, 1, 5, 8, id);
    b.recv(1, 0, 5, 8);
  }
  const lint::Report report = lint::check_structure(std::move(b).build());
  std::map<std::string, std::size_t> codes;
  for (const lint::Diagnostic& d : report.diagnostics()) ++codes[d.code];
  EXPECT_EQ(codes["wait-before-post"], 3000u);
  EXPECT_EQ(codes["wait-unknown"], 297'000u);
  EXPECT_EQ(codes["leaked-request"], 3000u);
  EXPECT_EQ(report.num_errors(), 303'000u);
  EXPECT_EQ(report.diagnostics()[100].message,
            "wait on request 100 before it is posted (posted later at "
            "record 300001)");
}

/// Runs check_structure on `t` in a thread with a `stack_bytes` stack.
lint::Report check_structure_on_small_stack(const Trace& t,
                                            std::size_t stack_bytes) {
  struct Job {
    const Trace* trace;
    lint::Report report;
    bool threw;
  } job{&t, {}, false};
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  EXPECT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const int rc = pthread_create(
      &thread, &attr,
      [](void* arg) -> void* {
        auto* j = static_cast<Job*>(arg);
        try {
          j->report = lint::check_structure(*j->trace);
        } catch (...) {
          j->threw = true;
        }
        return nullptr;
      },
      &job);
  pthread_attr_destroy(&attr);
  EXPECT_EQ(rc, 0);
  if (rc == 0) pthread_join(thread, nullptr);
  EXPECT_FALSE(job.threw);
  return std::move(job.report);
}

TEST(StructureBounds, LongAugmentingPathsFitASmallStack) {
  // Every ANY_SOURCE receive accepts every send, so the k-th send's
  // augmenting path shifts all k earlier pairs: the path is as long as the
  // message count. A recursive augment needs about 2 MB of stack here.
  constexpr int kMessages = 20'000;
  TraceBuilder b(2, 1000.0);
  for (int k = 0; k < kMessages; ++k) {
    b.recv(0, kAnyRank, 7, 64);
    b.send(1, 0, 7, 64);
  }
  const lint::Report report =
      check_structure_on_small_stack(std::move(b).build(), 256 * 1024);
  EXPECT_EQ(report.diagnostics().size(), 0u) << report.render_text();
}

}  // namespace
}  // namespace osim
