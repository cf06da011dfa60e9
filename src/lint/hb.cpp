#include "lint/hb.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <variant>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/matching.hpp"
#include "lint/overlap_hazards.hpp"
#include "lint/races.hpp"

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

constexpr std::size_t kNoSnapshot = static_cast<std::size_t>(-1);

/// A posted record's clock by reference: a live snapshot of its rank's
/// clock at or after the last join before the post, plus the record's own
/// program-order tick. `snapshot` is kNoSnapshot once released (or when no
/// join will ever read it).
struct Stamp {
  std::size_t snapshot = kNoSnapshot;
  std::uint64_t tick = 0;
};

struct PendingRecv;

struct PendingSend {
  SendEnvelope env;
  bool rendezvous = false;
  bool matched = false;
  /// No completion of this send will join its partner's post any more:
  /// eager, completed, or its request was dropped unwaited.
  bool retired = false;
  std::size_t record = 0;
  Stamp post;
  PendingRecv* partner = nullptr;
};

struct PendingRecv {
  RecvEnvelope env;
  bool matched = false;
  /// No completion of this receive will join its partner's post any more.
  bool retired = false;
  std::size_t record = 0;
  Stamp post;
  PendingSend* partner = nullptr;
};

/// What an immediate request resolves to in the untimed model.
struct ReqEntry {
  PendingSend* send = nullptr;  // isend: complete when eager or matched
  PendingRecv* recv = nullptr;  // irecv: complete when matched
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
  VectorClock clock;  // running clock
  /// A live snapshot equal to `clock` (own component aside), held by this
  /// rank; kNoSnapshot until a post needs one after the last change.
  std::size_t snapshot = kNoSnapshot;
  BlockKind block = BlockKind::kNone;
  std::size_t block_record = 0;
  PendingSend* blocked_send = nullptr;
  PendingRecv* blocked_recv = nullptr;
  std::vector<ReqId> wait_pending;      // kWait: not-yet-complete requests
  std::vector<ReqId> wait_all;          // kWait: the full request list
  std::size_t coll_ordinal = 0;         // kCollective: my arrival ordinal
  std::vector<Stamp> arrivals;          // per collective ordinal reached
  /// Requests posted and not yet retired by a wait.
  std::map<ReqId, ReqEntry> requests;
};

/// Reference-counted dense snapshots. A slot whose count drops to zero
/// goes onto the free list and its n-component buffer is reused.
class SnapshotPool {
 public:
  explicit SnapshotPool(std::size_t width) : width_(width) {}

  /// A new snapshot with one reference; its components are unspecified.
  std::size_t make() {
    std::size_t id;
    if (free_.empty()) {
      id = slots_.size();
      slots_.emplace_back(width_, 0);
      refs_.push_back(0);
    } else {
      id = free_.back();
      free_.pop_back();
    }
    refs_[id] = 1;
    peak_ = std::max(peak_, ++live_);
    return id;
  }
  void acquire(std::size_t id) { ++refs_[id]; }
  void release(std::size_t id) {
    if (--refs_[id] == 0) {
      free_.push_back(id);
      --live_;
    }
  }
  VectorClock& at(std::size_t id) { return slots_[id]; }
  const VectorClock& at(std::size_t id) const { return slots_[id]; }
  std::size_t peak() const { return peak_; }

 private:
  std::size_t width_;
  std::vector<VectorClock> slots_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::size_t> free_;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace

/// The abstract machine of hb.hpp: one run over a trace, filling an
/// HbAnalysis (a friend, for the declared clocks).
class ClockedMachine {
 public:
  ClockedMachine(const trace::Trace& trace, const HbPoints& points,
                 std::uint64_t eager_threshold)
      : trace_(trace),
        eager_threshold_(eager_threshold),
        pool_(trace.ranks.size()) {
    const std::size_t n = trace.ranks.size();
    machines_.resize(n);
    unmatched_sends_.resize(n);
    unmatched_recvs_.resize(n);
    hb_.captured_.resize(n);
    next_point_.resize(n, 0);
    pending_completion_.resize(n, nullptr);
    for (Rank r = 0; r < trace.num_ranks; ++r) {
      machine(r).clock.assign(n, 0);
      for (const HbPoints::Point& p : points.sorted(r)) {
        hb_.captured_[static_cast<std::size_t>(r)].push_back(
            HbAnalysis::Captured{p.record, p.kinds, kNoSnapshot, kNoSnapshot});
      }
    }
    hb_.num_ranks = trace.num_ranks;
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
    hb_.peak_live_snapshots = pool_.peak();
    keep_declared_clocks();
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

  /// A new reference to `m`'s current clock, snapshotting the running
  /// clock first when no live snapshot equals it.
  std::size_t current_snapshot(RankMachine& m) {
    if (m.snapshot == kNoSnapshot) {
      m.snapshot = pool_.make();
      pool_.at(m.snapshot) = m.clock;
    }
    pool_.acquire(m.snapshot);
    return m.snapshot;
  }

  /// Drops one reference and forgets it.
  void release(std::size_t& snapshot) {
    if (snapshot == kNoSnapshot) return;
    pool_.release(snapshot);
    snapshot = kNoSnapshot;
  }

  /// The receive's completion has joined its partner's post, or never
  /// will: the partner send's stamp has no reader left.
  void retire(PendingRecv& recv) {
    recv.retired = true;
    if (recv.partner != nullptr) release(recv.partner->post.snapshot);
  }
  void retire(PendingSend& send) {
    send.retired = true;
    if (send.partner != nullptr) release(send.partner->post.snapshot);
  }
  void retire(const ReqEntry& entry) {
    if (entry.send != nullptr) retire(*entry.send);
    if (entry.recv != nullptr) retire(*entry.recv);
  }

  /// Pairs a send with a receive; a side already retired will never read
  /// the other's post stamp.
  void pair(PendingSend* send, PendingRecv* recv) {
    send->matched = recv->matched = true;
    send->partner = recv;
    recv->partner = send;
    if (recv->retired) release(send->post.snapshot);
    if (send->retired) release(recv->post.snapshot);
  }

  /// Joins the clock `stamp` names, posted by rank `q`, into `dst`; true
  /// when that changed `dst`. A clock only learns q's tick t by joining
  /// one of q's clocks at or after t, which dominates q's clock at t — so
  /// dst[q] >= t means the join would change nothing.
  bool join_into(VectorClock& dst, Rank q, const Stamp& stamp) const {
    std::uint64_t& own = dst[static_cast<std::size_t>(q)];
    if (stamp.tick <= own) return false;
    OSIM_CHECK_MSG(stamp.snapshot != kNoSnapshot,
                   "happens-before join of a released snapshot");
    const VectorClock& src = pool_.at(stamp.snapshot);
    for (std::size_t c = 0; c < dst.size(); ++c) {
      dst[c] = std::max(dst[c], src[c]);
    }
    own = stamp.tick;
    return true;
  }

  /// The k-th collective's completion clock — the join of every rank's
  /// arrival — as a snapshot shared by all ranks, computed when the first
  /// rank resolves it (collectives first resolve in ordinal order, so the
  /// table grows by one at a time). The arrivals are released then; the
  /// table's own reference is dropped once every rank has resolved it.
  std::size_t collective_snapshot(std::size_t k) {
    if (k == coll_snapshots_.size()) {
      const std::size_t id = pool_.make();
      VectorClock& join = pool_.at(id);
      std::fill(join.begin(), join.end(), 0);
      for (Rank q = 0; q < trace_.num_ranks; ++q) {
        Stamp& arrival = machine(q).arrivals[k];
        join_into(join, q, arrival);
        release(arrival.snapshot);
      }
      coll_snapshots_.push_back(id);
      coll_resolved_.push_back(0);
    }
    return coll_snapshots_[k];
  }

  /// Applies the completion joins of the resolved blocking record and
  /// retires what it completed; pins a declared completion clock.
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
        retire(*m.blocked_send);
        break;
      case BlockKind::kRecv:
        if (m.blocked_recv->partner != nullptr) {
          const PendingSend& send = *m.blocked_recv->partner;
          changed = join_into(m.clock, send.env.src, send.post);
        }
        retire(*m.blocked_recv);
        break;
      case BlockKind::kWait:
        for (const ReqId req : m.wait_all) {
          const auto it = m.requests.find(req);
          if (it == m.requests.end()) continue;  // unknown or retired
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
          retire(entry);
          m.requests.erase(it);
        }
        break;
      case BlockKind::kCollective: {
        // Every rank's completion clock is exactly the collective's join.
        const std::size_t k = m.coll_ordinal;
        const std::size_t join = collective_snapshot(k);
        release(m.snapshot);
        pool_.acquire(join);
        m.snapshot = join;
        m.clock = pool_.at(join);
        if (++coll_resolved_[k] == machines_.size()) {
          pool_.release(coll_snapshots_[k]);
        }
        pin_completion(r, m, /*changed=*/true);
        return;
      }
      case BlockKind::kNone:
        return;
    }
    if (changed) release(m.snapshot);  // it no longer equals the clock
    pin_completion(r, m, changed);
  }

  /// Pins the resolved record's declared completion clock: the post clock
  /// pinned at execution unless the completion joins changed the clock.
  void pin_completion(Rank r, RankMachine& m, bool changed) {
    HbAnalysis::Captured* point = std::exchange(
        pending_completion_[static_cast<std::size_t>(r)], nullptr);
    if (point == nullptr || !changed) return;
    release(point->completion);
    point->completion = current_snapshot(m);
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
        finish(m);
        progressed = true;
        break;
      }
      const std::size_t i = m.pc++;
      progressed = true;
      execute(r, m, i, recs[i]);
      pin_post(r, m, i);
    }
    return progressed;
  }

  /// A finished rank posts nothing more and waits on nothing more.
  void finish(RankMachine& m) {
    m.finished = true;
    for (const auto& [req, entry] : m.requests) retire(entry);
    m.requests.clear();
    release(m.snapshot);
  }

  /// Pins the declared clocks of record i, just executed: its post clock,
  /// and its completion clock, which is the post clock unless the record
  /// blocks (then resolve_block re-pins it once the joins are applied).
  void pin_post(Rank r, RankMachine& m, std::size_t i) {
    const auto idx = static_cast<std::size_t>(r);
    std::vector<HbAnalysis::Captured>& points = hb_.captured_[idx];
    std::size_t& next = next_point_[idx];
    while (next < points.size() && points[next].record < i) ++next;
    if (next == points.size() || points[next].record != i) return;
    HbAnalysis::Captured& point = points[next++];
    if ((point.kinds & kPostClock) != 0) point.post = current_snapshot(m);
    if ((point.kinds & kCompletionClock) != 0) {
      point.completion = current_snapshot(m);
      if (m.block != BlockKind::kNone) pending_completion_[idx] = &point;
    }
  }

  /// Records `entry` under `req`; reusing a live request drops the old
  /// one unwaited.
  void post_request(RankMachine& m, ReqId req, const ReqEntry& entry) {
    const auto [it, fresh] = m.requests.try_emplace(req, entry);
    if (fresh) return;
    retire(it->second);
    it->second = entry;
  }

  void execute(Rank r, RankMachine& m, std::size_t i, const Record& rec) {
    // Program-order tick: every record gets a unique clock.
    const std::uint64_t tick = ++m.clock[static_cast<std::size_t>(r)];

    if (const auto* send = std::get_if<Send>(&rec)) {
      if (!in_range(send->dest) || send->dest == r) return;  // match pass
      const bool rendezvous =
          send->synchronous || send->bytes > eager_threshold_;
      // An eager send, or one no wait can complete, never joins its
      // partner's post.
      const bool retired =
          !rendezvous ||
          (send->immediate && send->request == trace::kNoRequest);
      sends_pool_.push_back(PendingSend{
          SendEnvelope{r, send->dest, send->tag, send->bytes}, rendezvous,
          false, retired, i, Stamp{kNoSnapshot, tick}, nullptr});
      PendingSend* ps = &sends_pool_.back();
      match_send(ps);
      if (!ps->matched || !ps->partner->retired) {
        ps->post.snapshot = current_snapshot(m);
      }
      if (send->immediate) {
        if (send->request != trace::kNoRequest) {
          post_request(m, send->request, ReqEntry{ps, nullptr});
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
      const bool retired =
          recv->immediate && recv->request == trace::kNoRequest;
      recvs_pool_.push_back(PendingRecv{
          RecvEnvelope{recv->src, r, recv->tag, recv->bytes}, false, retired,
          i, Stamp{kNoSnapshot, tick}, nullptr});
      PendingRecv* pr = &recvs_pool_.back();
      match_recv(pr);
      if (!pr->matched || !pr->partner->retired) {
        pr->post.snapshot = current_snapshot(m);
      }
      if (recv->immediate) {
        if (recv->request != trace::kNoRequest) {
          post_request(m, recv->request, ReqEntry{nullptr, pr});
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
      m.arrivals.push_back(Stamp{current_snapshot(m), tick});
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
        pair(send, *it);
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
        pair(*it, recv);
        sends.erase(it);
        return;
      }
    }
    unmatched_recvs_[static_cast<std::size_t>(recv->env.dst)].push_back(recv);
  }

  /// Moves the pinned clocks of the declared points into the analysis,
  /// turning their pool slots into indices of HbAnalysis::clocks_.
  void keep_declared_clocks() {
    std::vector<std::size_t> kept;  // pool slot -> index in hb_.clocks_
    const auto keep = [&](std::size_t& slot) {
      if (slot == kNoSnapshot) {
        slot = HbAnalysis::kNoClock;
        return;
      }
      if (slot >= kept.size()) kept.resize(slot + 1, HbAnalysis::kNoClock);
      if (kept[slot] == HbAnalysis::kNoClock) {
        kept[slot] = hb_.clocks_.size();
        hb_.clocks_.push_back(std::move(pool_.at(slot)));
      }
      slot = kept[slot];
    };
    for (std::vector<HbAnalysis::Captured>& points : hb_.captured_) {
      for (HbAnalysis::Captured& p : points) {
        keep(p.post);
        keep(p.completion);
      }
    }
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
  SnapshotPool pool_;
  std::vector<RankMachine> machines_;
  // Stable-address pools; inbox deques and partner pointers point into them.
  std::deque<PendingSend> sends_pool_;
  std::deque<PendingRecv> recvs_pool_;
  std::vector<std::deque<PendingSend*>> unmatched_sends_;
  std::vector<std::deque<PendingRecv*>> unmatched_recvs_;
  std::vector<std::size_t> coll_arrived_;    // per ordinal: ranks arrived
  std::vector<std::size_t> coll_snapshots_;  // per resolved ordinal
  std::vector<std::size_t> coll_resolved_;   // per ordinal: ranks resolved
  // Per rank: the first declared point (hb_.captured_, holding pool slots
  // until the run ends) not yet reached, and the blocking record's
  // declared completion, pinned when it resolves.
  std::vector<std::size_t> next_point_;
  std::vector<HbAnalysis::Captured*> pending_completion_;
  HbAnalysis hb_;
};

HbPoints HbPoints::every(const trace::Trace& trace) {
  HbPoints points(trace.num_ranks);
  for (std::size_t r = 0; r < points.ranks_.size(); ++r) {
    for (std::size_t i = 0; i < trace.ranks[r].size(); ++i) {
      points.ranks_[r].push_back(Point{i, kPostClock | kCompletionClock});
    }
  }
  return points;
}

std::vector<HbPoints::Point> HbPoints::sorted(trace::Rank r) const {
  const auto idx = static_cast<std::size_t>(r);
  if (idx >= ranks_.size()) return {};
  std::vector<Point> list = ranks_[idx];
  std::sort(list.begin(), list.end(), [](const Point& a, const Point& b) {
    return a.record < b.record;
  });
  std::vector<Point> merged;
  for (const Point& p : list) {
    if (!merged.empty() && merged.back().record == p.record) {
      merged.back().kinds |= p.kinds;
    } else {
      merged.push_back(p);
    }
  }
  return merged;
}

VectorClock HbAnalysis::clock_at(trace::Rank r, std::size_t i,
                                 HbClockKind kind) const {
  const auto idx = static_cast<std::size_t>(r);
  const Captured* point = nullptr;
  if (idx < captured_.size()) {
    const std::vector<Captured>& list = captured_[idx];
    const auto it = std::partition_point(
        list.begin(), list.end(),
        [i](const Captured& c) { return c.record < i; });
    if (it != list.end() && it->record == i && (it->kinds & kind) != 0) {
      point = &*it;
    }
  }
  OSIM_CHECK_MSG(point != nullptr,
                 strprintf("%s clock of rank %d record %zu was not declared",
                           kind == kPostClock ? "post" : "completion", r, i));
  const std::size_t id =
      kind == kPostClock ? point->post : point->completion;
  if (id == kNoClock) return {};
  VectorClock clock = clocks_[id];
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

HbPoints lint_clock_points(const trace::Trace& trace) {
  HbPoints points(trace.num_ranks);
  declare_race_clock_reads(trace, points);
  declare_overlap_clock_reads(trace, points);
  return points;
}

HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  const HbPoints& points,
                                  std::uint64_t eager_threshold_bytes) {
  return ClockedMachine(trace, points, eager_threshold_bytes).run();
}

HbAnalysis analyze_happens_before(const trace::Trace& trace,
                                  std::uint64_t eager_threshold_bytes) {
  return analyze_happens_before(trace, lint_clock_points(trace),
                                eager_threshold_bytes);
}

}  // namespace osim::lint
