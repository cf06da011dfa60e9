#include "lint/hb.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <variant>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/matching.hpp"

namespace osim::lint {

namespace {

using dimemas::RecvEnvelope;
using dimemas::SendEnvelope;
using dimemas::envelope_matches;
using trace::GlobalOp;
using trace::kAnyRank;
using trace::Rank;
using trace::Record;
using trace::Recv;
using trace::ReqId;
using trace::Send;
using trace::Wait;

/// True when every component of `a` is <= the matching component of `b`.
bool dominates(const VectorClock& a, const VectorClock& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

/// A posted record's clock by reference: its rank's snapshot at the time
/// of posting, plus the record's own program-order tick.
struct Stamp {
  std::size_t snapshot = 0;
  std::uint64_t tick = 0;
};

struct PendingRecv;

struct PendingSend {
  SendEnvelope env;
  bool rendezvous = false;
  bool matched = false;
  std::size_t record = 0;
  Stamp post;
  const PendingRecv* partner = nullptr;
};

struct PendingRecv {
  RecvEnvelope env;
  bool matched = false;
  std::size_t record = 0;
  Stamp post;
  const PendingSend* partner = nullptr;
};

/// What an immediate request resolves to in the untimed model.
struct ReqEntry {
  const PendingSend* send = nullptr;  // isend: complete when eager or matched
  const PendingRecv* recv = nullptr;  // irecv: complete when matched
  bool complete() const {
    if (send != nullptr) return !send->rendezvous || send->matched;
    if (recv != nullptr) return recv->matched;
    return true;
  }
};

enum class BlockKind { kNone, kSend, kRecv, kWait, kCollective };

struct RankMachine {
  std::size_t pc = 0;
  bool finished = false;
  VectorClock clock;         // running clock
  std::size_t snapshot = 0;  // the snapshot `clock` equals, own tick aside
  BlockKind block = BlockKind::kNone;
  std::size_t block_record = 0;
  const PendingSend* blocked_send = nullptr;
  const PendingRecv* blocked_recv = nullptr;
  std::vector<ReqId> wait_pending;      // kWait: not-yet-complete requests
  std::vector<ReqId> wait_all;          // kWait: the full request list
  std::size_t coll_ordinal = 0;         // kCollective: my arrival ordinal
  std::vector<Stamp> arrivals;          // per collective ordinal reached
  std::map<ReqId, ReqEntry> requests;
};

class ClockedMachine {
 public:
  ClockedMachine(const trace::Trace& trace, std::uint64_t eager_threshold)
      : trace_(trace), eager_threshold_(eager_threshold) {
    const std::size_t n = trace.ranks.size();
    machines_.resize(n);
    unmatched_sends_.resize(n);
    unmatched_recvs_.resize(n);
    for (RankMachine& m : machines_) m.clock.assign(n, 0);
    hb_.num_ranks = trace.num_ranks;
    hb_.snapshots.emplace_back(n, 0);
    hb_.epochs.resize(n);
  }

  HbAnalysis run() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < trace_.num_ranks; ++r) {
        if (advance(r)) progress = true;
      }
    }
    for (Rank r = 0; r < trace_.num_ranks; ++r) {
      const RankMachine& m = machines_[static_cast<std::size_t>(r)];
      hb_.executed.push_back(m.pc);
      if (!m.finished) hb_.stuck.push_back(stuck_rank(r, m));
    }
    hb_.converged = hb_.stuck.empty();
    for (const PendingSend& send : sends_pool_) {
      if (!send.matched || send.partner == nullptr) continue;
      hb_.matches.push_back(HbMatch{send.env.src, send.record, send.env.dst,
                                    send.partner->record});
    }
    return std::move(hb_);
  }

 private:
  RankMachine& machine(Rank r) {
    return machines_[static_cast<std::size_t>(r)];
  }
  const std::vector<Record>& stream(Rank r) const {
    return trace_.ranks[static_cast<std::size_t>(r)];
  }

  bool in_range(Rank r) const { return r >= 0 && r < trace_.num_ranks; }

  bool block_resolved(const RankMachine& m) const {
    switch (m.block) {
      case BlockKind::kNone:
        return true;
      case BlockKind::kSend:
        return m.blocked_send->matched;
      case BlockKind::kRecv:
        return m.blocked_recv->matched;
      case BlockKind::kWait:
        return std::all_of(m.wait_pending.begin(), m.wait_pending.end(),
                           [&](ReqId req) {
                             const auto it = m.requests.find(req);
                             return it == m.requests.end() ||
                                    it->second.complete();
                           });
      case BlockKind::kCollective:
        return coll_arrived_[m.coll_ordinal] == machines_.size();
    }
    OSIM_UNREACHABLE("bad block kind");
  }

  /// Joins the clock `stamp` names, posted by rank `q`, into `dst`; true
  /// when that changed `dst`. A clock only learns q's tick t by joining
  /// one of q's clocks at or after t, which dominates q's clock at t — so
  /// dst[q] >= t means the join would change nothing.
  bool join_into(VectorClock& dst, Rank q, const Stamp& stamp) const {
    std::uint64_t& own = dst[static_cast<std::size_t>(q)];
    if (stamp.tick <= own) return false;
    const VectorClock& src = hb_.snapshots[stamp.snapshot];
    for (std::size_t c = 0; c < dst.size(); ++c) {
      dst[c] = std::max(dst[c], src[c]);
    }
    own = stamp.tick;
    return true;
  }

  /// The k-th collective's completion clock — the join of every rank's
  /// arrival — as a snapshot shared by all ranks. Collectives first
  /// resolve in ordinal order, so the table grows by one at a time.
  std::size_t collective_snapshot(std::size_t k) {
    if (k == coll_snapshots_.size()) {
      VectorClock join(machines_.size(), 0);
      for (Rank q = 0; q < trace_.num_ranks; ++q) {
        join_into(join, q, machine(q).arrivals[k]);
      }
      coll_snapshots_.push_back(hb_.snapshots.size());
      hb_.snapshots.push_back(std::move(join));
    }
    return coll_snapshots_[k];
  }

  /// Applies the completion joins of the resolved blocking record; a join
  /// that changed the clock starts a new epoch.
  void resolve_block(Rank r, RankMachine& m) {
    const BlockKind block = m.block;
    m.block = BlockKind::kNone;
    bool changed = false;
    switch (block) {
      case BlockKind::kSend:
        if (m.blocked_send->partner != nullptr) {
          const PendingRecv& recv = *m.blocked_send->partner;
          changed = join_into(m.clock, recv.env.dst, recv.post);
        }
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->partner != nullptr) {
          const PendingSend& send = *m.blocked_recv->partner;
          changed = join_into(m.clock, send.env.src, send.post);
        }
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_all) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end()) continue;
          const ReqEntry& entry = it->second;
          if (entry.recv != nullptr && entry.recv->partner != nullptr) {
            const PendingSend& send = *entry.recv->partner;
            changed |= join_into(m.clock, send.env.src, send.post);
          } else if (entry.send != nullptr && entry.send->rendezvous &&
                     entry.send->partner != nullptr) {
            const PendingRecv& recv = *entry.send->partner;
            changed |= join_into(m.clock, recv.env.dst, recv.post);
          }
          // Eager isend: completes locally, no synchronization edge.
        }
        break;
      case BlockKind::kCollective:
        // Every rank's completion clock is exactly the collective's join.
        m.snapshot = collective_snapshot(m.coll_ordinal);
        m.clock = hb_.snapshots[m.snapshot];
        hb_.epochs[static_cast<std::size_t>(r)].push_back(
            HbEpoch{m.block_record, m.snapshot});
        return;
      case BlockKind::kNone:
        return;
    }
    if (!changed) return;
    m.snapshot = hb_.snapshots.size();
    hb_.snapshots.push_back(m.clock);
    hb_.epochs[static_cast<std::size_t>(r)].push_back(
        HbEpoch{m.block_record, m.snapshot});
  }

  /// Executes as many records of rank `r` as possible; true on progress.
  bool advance(Rank r) {
    RankMachine& m = machine(r);
    bool progressed = false;
    while (!m.finished) {
      if (m.block != BlockKind::kNone) {
        if (!block_resolved(m)) return progressed;
        resolve_block(r, m);
        progressed = true;
      }
      const auto& recs = stream(r);
      if (m.pc >= recs.size()) {
        m.finished = true;
        progressed = true;
        break;
      }
      const std::size_t i = m.pc++;
      progressed = true;
      execute(r, m, i, recs[i]);
    }
    return progressed;
  }

  void execute(Rank r, RankMachine& m, std::size_t i, const Record& rec) {
    // Program-order tick: every record gets a unique clock.
    const Stamp post{m.snapshot, ++m.clock[static_cast<std::size_t>(r)]};

    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!in_range(send->dest) || send->dest == r) return;  // match pass
      sends_pool_.push_back(PendingSend{
          SendEnvelope{r, send->dest, send->tag, send->bytes},
          send->synchronous || send->bytes > eager_threshold_, false, i,
          post, nullptr});
      PendingSend* ps = &sends_pool_.back();
      match_send(ps);
      if (send->immediate) {
        if (send->request != trace::kNoRequest) {
          m.requests[send->request] = ReqEntry{ps, nullptr};
        }
        return;
      }
      if (ps->rendezvous) {
        m.block = BlockKind::kSend;
        m.block_record = i;
        m.blocked_send = ps;  // resolved (maybe immediately) in advance()
      }
    } else if (const auto* recv = std::get_if<Recv>(&rec)) {
      if ((recv->src != kAnyRank && !in_range(recv->src)) ||
          recv->src == r) {
        return;  // reported by the match pass
      }
      recvs_pool_.push_back(PendingRecv{
          RecvEnvelope{recv->src, r, recv->tag, recv->bytes}, false, i, post,
          nullptr});
      PendingRecv* pr = &recvs_pool_.back();
      match_recv(pr);
      if (recv->immediate) {
        if (recv->request != trace::kNoRequest) {
          m.requests[recv->request] = ReqEntry{nullptr, pr};
        }
        return;
      }
      m.block = BlockKind::kRecv;
      m.block_record = i;
      m.blocked_recv = pr;
    } else if (const auto* wait = std::get_if<Wait>(&rec)) {
      std::vector<ReqId> pending;
      for (const ReqId req : wait->requests) {
        const auto it = m.requests.find(req);
        // Unknown requests are the requests pass's finding; treat them as
        // complete so one defect does not cascade into phantom deadlocks.
        if (it != m.requests.end() && !it->second.complete()) {
          pending.push_back(req);
        }
      }
      m.block = BlockKind::kWait;
      m.block_record = i;
      m.wait_pending = std::move(pending);
      m.wait_all = wait->requests;
    } else if (std::get_if<GlobalOp>(&rec) != nullptr) {
      m.coll_ordinal = m.arrivals.size();
      m.arrivals.push_back(post);
      if (m.coll_ordinal == coll_arrived_.size()) coll_arrived_.push_back(0);
      ++coll_arrived_[m.coll_ordinal];
      m.block = BlockKind::kCollective;
      m.block_record = i;
    }
    // CpuBurst: no dependency.
  }

  void match_send(PendingSend* send) {
    auto& recvs = unmatched_recvs_[static_cast<std::size_t>(send->env.dst)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (envelope_matches((*it)->env, send->env)) {
        (*it)->matched = true;
        (*it)->partner = send;
        send->matched = true;
        send->partner = *it;
        recvs.erase(it);
        return;
      }
    }
    unmatched_sends_[static_cast<std::size_t>(send->env.dst)].push_back(send);
  }

  void match_recv(PendingRecv* recv) {
    auto& sends = unmatched_sends_[static_cast<std::size_t>(recv->env.dst)];
    for (auto it = sends.begin(); it != sends.end(); ++it) {
      if (envelope_matches(recv->env, (*it)->env)) {
        (*it)->matched = true;
        (*it)->partner = recv;
        recv->matched = true;
        recv->partner = *it;
        sends.erase(it);
        return;
      }
    }
    unmatched_recvs_[static_cast<std::size_t>(recv->env.dst)].push_back(recv);
  }

  /// Every unfinished rank other than `r`: who could still send to a
  /// wildcard receive.
  void insert_unfinished_peers(Rank r, std::set<Rank>& targets) const {
    for (Rank o = 0; o < trace_.num_ranks; ++o) {
      if (o != r && !machines_[static_cast<std::size_t>(o)].finished) {
        targets.insert(o);
      }
    }
  }

  /// The blame entry of a stuck rank: the ranks it waits on and a short
  /// description of what it needs from them.
  StuckRank stuck_rank(Rank r, const RankMachine& m) const {
    std::set<Rank> targets;
    std::string what;
    switch (m.block) {
      case BlockKind::kSend:
        targets.insert(m.blocked_send->env.dst);
        what = strprintf("a matching recv on rank %d",
                         m.blocked_send->env.dst);
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->env.src != kAnyRank) {
          targets.insert(m.blocked_recv->env.src);
          what = strprintf("a matching send from rank %d",
                           m.blocked_recv->env.src);
        } else {
          insert_unfinished_peers(r, targets);
          what = "a matching send from ANY_SOURCE";
        }
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_pending) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end() || it->second.complete()) continue;
          if (it->second.send != nullptr) {
            targets.insert(it->second.send->env.dst);
          } else if (it->second.recv != nullptr) {
            if (it->second.recv->env.src != kAnyRank) {
              targets.insert(it->second.recv->env.src);
            } else {
              insert_unfinished_peers(r, targets);
            }
          }
        }
        what = strprintf("%zu incomplete request(s)", m.wait_pending.size());
        break;
      case BlockKind::kCollective:
        for (Rank o = 0; o < trace_.num_ranks; ++o) {
          if (o != r && machines_[static_cast<std::size_t>(o)]
                                .arrivals.size() <= m.coll_ordinal) {
            targets.insert(o);
          }
        }
        what = strprintf("collective #%lld arrival",
                         static_cast<long long>(m.coll_ordinal));
        break;
      case BlockKind::kNone:
        break;
    }
    return StuckRank{r, m.block_record, std::move(what),
                     std::vector<Rank>(targets.begin(), targets.end())};
  }

  const trace::Trace& trace_;
  const std::uint64_t eager_threshold_;
  std::vector<RankMachine> machines_;
  // Stable-address pools; inbox deques and partner pointers point into them.
  std::deque<PendingSend> sends_pool_;
  std::deque<PendingRecv> recvs_pool_;
  std::vector<std::deque<PendingSend*>> unmatched_sends_;
  std::vector<std::deque<PendingRecv*>> unmatched_recvs_;
  std::vector<std::size_t> coll_arrived_;    // per ordinal: ranks arrived
  std::vector<std::size_t> coll_snapshots_;  // per resolved ordinal
  HbAnalysis hb_;
};

}  // namespace

VectorClock HbAnalysis::clock_at(trace::Rank r, std::size_t i,
                                 bool completed) const {
  const auto idx = static_cast<std::size_t>(r);
  if (i >= executed[idx]) return {};
  // Epochs of records before `end` apply: through i-1 for a post, through
  // i for a completion.
  const std::size_t end = completed ? i + 1 : i;
  const std::vector<HbEpoch>& list = epochs[idx];
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [end](const HbEpoch& e) { return e.record < end; });
  VectorClock clock =
      snapshots[it == list.begin() ? 0 : std::prev(it)->snapshot];
  clock[idx] = i + 1;
  return clock;
}

bool hb_before(const VectorClock& a, const VectorClock& b) {
  if (a.empty() || b.empty()) return false;
  return dominates(a, b) && a != b;
}

bool hb_concurrent(const VectorClock& a, const VectorClock& b) {
  if (a.empty() || b.empty()) return false;
  return !dominates(a, b) && !dominates(b, a);
}

std::string clock_to_string(const VectorClock& clock) {
  std::string out;
  out.reserve(2 + 4 * clock.size());
  out += '[';
  char digits[20];  // UINT64_MAX has 20 decimal digits
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (i > 0) out += ',';
    const char* end =
        std::to_chars(digits, digits + sizeof(digits), clock[i]).ptr;
    out.append(digits, static_cast<std::size_t>(end - digits));
  }
  out += ']';
  return out;
}

HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes) {
  return ClockedMachine(trace, eager_threshold_bytes).run();
}

}  // namespace osim::lint
