#include "lint/match.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <tuple>
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
/// The search is iterative: an augmenting path may be as long as the
/// destination's message count.
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

  /// One level of an augmenting-path search: send `s` is trying the
  /// receives from index `r` on.
  struct Frame {
    std::size_t s;
    std::size_t r;
  };

  /// Searches an augmenting path from send `root` depth-first, on an
  /// explicit stack so the path length is not bounded by the thread's
  /// stack. Each level visits the receives in index order, exactly as the
  /// recursive formulation would: a receive held by another send descends
  /// into that send, and a level whose receives are exhausted fails back
  /// to its parent, which resumes after the receive it descended through.
  void augment(std::size_t root) {
    path_.clear();
    path_.push_back(Frame{root, unvisited_from(0)});
    while (!path_.empty()) {
      Frame& top = path_.back();
      std::size_t r = top.r;
      while (r < recvs_.size() &&
             !envelope_matches(recvs_[r].env, sends_[top.s].env)) {
        r = unvisited_from(r + 1);
      }
      if (r == recvs_.size()) {
        path_.pop_back();
        if (!path_.empty()) {
          path_.back().r = unvisited_from(path_.back().r + 1);
        }
        continue;
      }
      top.r = r;
      next_unvisited_[r] = r + 1;  // mark visited
      if (send_of_recv_[r] >= 0) {
        path_.push_back(Frame{static_cast<std::size_t>(send_of_recv_[r]),
                              unvisited_from(0)});
        continue;
      }
      // A free receive ends the path: every level takes the receive it
      // descended through.
      for (const Frame& level : path_) {
        send_of_recv_[level.r] = static_cast<std::ptrdiff_t>(level.s);
        recv_of_send_[level.s] = static_cast<std::ptrdiff_t>(level.r);
      }
      return;
    }
  }

  const std::vector<SendSite>& sends_;
  const std::vector<RecvSite>& recvs_;
  std::vector<std::ptrdiff_t> recv_of_send_;
  std::vector<std::ptrdiff_t> send_of_recv_;
  std::vector<std::size_t> next_unvisited_;
  std::vector<Frame> path_;
};

/// The FIFO channel, (source, tag), a message travels on at its
/// destination.
template <typename Site>
std::pair<Rank, Tag> channel(const Site& site) {
  return {site.env.src, site.env.tag};
}

/// Sorts sites by (channel, record): per channel the sites stay in record
/// order, which is the order MPI's non-overtaking rule pairs them in.
template <typename Site>
void sort_by_channel(std::vector<Site>& sites) {
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    return std::tie(a.env.src, a.env.tag, a.record) <
           std::tie(b.env.src, b.env.tag, b.record);
  });
}

/// End of the run of sites that share `sites[begin]`'s channel.
template <typename Site>
std::size_t run_end(const std::vector<Site>& sites, std::size_t begin) {
  std::size_t end = begin + 1;
  while (end < sites.size() && channel(sites[end]) == channel(sites[begin])) {
    ++end;
  }
  return end;
}

/// Deterministic FIFO pairing for a destination with no wildcard receives:
/// per (src, tag) channel the k-th send must pair with the k-th recv. Both
/// site lists are sorted into channel runs and merge-walked: first every
/// channel that carries a send, ascending, then the channels only
/// receives name.
void check_fifo(std::vector<SendSite>& sends, std::vector<RecvSite>& recvs,
                Rank dst, Report& report) {
  sort_by_channel(sends);
  sort_by_channel(recvs);

  std::size_t r = 0;
  for (std::size_t s = 0; s < sends.size();) {
    const auto key = channel(sends[s]);
    const std::size_t s_end = run_end(sends, s);
    while (r < recvs.size() && channel(recvs[r]) < key) ++r;
    const std::size_t r_end =
        r < recvs.size() && channel(recvs[r]) == key ? run_end(recvs, r) : r;
    const std::size_t num_sends = s_end - s;
    const std::size_t num_recvs = r_end - r;
    const std::size_t paired = std::min(num_sends, num_recvs);
    for (std::size_t k = 0; k < paired; ++k) {
      const SendSite& send = sends[s + k];
      const RecvSite& recv = recvs[r + k];
      if (recv.env.bytes < send.env.bytes) {
        report.error(
            kPass, dst, static_cast<std::ptrdiff_t>(recv.record),
            strprintf("%s is smaller than its matching send (message %zu "
                      "from rank %d record %zu, %llu bytes): the pair can "
                      "never match",
                      recv_desc(recv).c_str(), k, send.env.src, send.record,
                      static_cast<unsigned long long>(send.env.bytes)));
      }
    }
    for (std::size_t k = paired; k < num_sends; ++k) {
      const SendSite& send = sends[s + k];
      report.error(kPass, send.env.src,
                   static_cast<std::ptrdiff_t>(send.record),
                   strprintf("unmatched %s: rank %d posts only %zu matching "
                             "recv(s)",
                             send_desc(send).c_str(), dst, num_recvs));
    }
    for (std::size_t k = paired; k < num_recvs; ++k) {
      const RecvSite& recv = recvs[r + k];
      report.error(kPass, dst, static_cast<std::ptrdiff_t>(recv.record),
                   strprintf("unmatched %s: rank %d issues only %zu matching "
                             "send(s)",
                             recv_desc(recv).c_str(), key.first, num_sends));
    }
    s = s_end;
    r = r_end;
  }

  std::size_t s = 0;
  for (r = 0; r < recvs.size();) {
    const auto key = channel(recvs[r]);
    const std::size_t r_end = run_end(recvs, r);
    while (s < sends.size() && channel(sends[s]) < key) ++s;
    if (s == sends.size() || channel(sends[s]) != key) {
      for (std::size_t k = r; k < r_end; ++k) {
        report.error(kPass, dst, static_cast<std::ptrdiff_t>(recvs[k].record),
                     strprintf("unmatched %s: no send with this envelope",
                               recv_desc(recvs[k]).c_str()));
      }
    }
    r = r_end;
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
