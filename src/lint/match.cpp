#include "lint/match.hpp"

#include <cstddef>
#include <map>
#include <numeric>
#include <tuple>
#include <variant>
#include <vector>

#include "common/strings.hpp"
#include "dimemas/matching.hpp"

namespace osim::lint {

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

}  // namespace osim::lint
