#include "dimemas/replay.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <memory>

#include "common/arena.hpp"
#include "common/expect.hpp"
#include "common/inline_function.hpp"
#include "common/strings.hpp"
#include "dimemas/collectives.hpp"
#include "dimemas/events.hpp"
#include "dimemas/matching.hpp"
#include "dimemas/network.hpp"
#include "faults/injector.hpp"
#include "metrics/collector.hpp"
#include "trace/soa.hpp"

namespace osim::dimemas {

using trace::CompiledStream;
using trace::kAnyRank;
using trace::kAnyTag;
using trace::LaneKind;
using trace::Rank;
using trace::Tag;

namespace {

/// DES events between cancellation polls. At the replay core's measured
/// rate (millions of events/s) this bounds detection latency well under a
/// millisecond of wall clock while keeping steady_clock reads off the per-
/// event path entirely.
constexpr std::uint64_t kCancelPollStride = 4096;

/// State of one request slot (trace/soa.hpp numbers a rank's requests
/// densely). A completed request stays kComplete after its Wait, so a
/// second immediate op on the same id is still a duplicate.
enum RequestState : std::uint8_t { kUnissued = 0, kPending, kComplete };

class Replayer {
 public:
  Replayer(const trace::Trace& trace, const ReplayProgram& program,
           const Platform& platform, const ReplayOptions& options)
      : trace_(trace),
        program_(program),
        platform_(platform),
        options_(options),
        network_(make_network(events_, platform)) {
    OSIM_CHECK_MSG(platform.num_nodes >= trace.num_ranks,
                   "platform has fewer nodes than the trace has ranks");
    if (!platform.per_node_cpu_speed.empty()) {
      OSIM_CHECK_MSG(platform.per_node_cpu_speed.size() ==
                         static_cast<std::size_t>(platform.num_nodes),
                     "per_node_cpu_speed must have num_nodes entries");
      for (const double speed : platform.per_node_cpu_speed) {
        OSIM_CHECK_MSG(speed > 0.0, "per-node CPU speed must be positive");
      }
    }
    OSIM_CHECK_MSG(program.lowered_for(options),
                   "replay program was lowered under other collective options");
    OSIM_CHECK_MSG(program.lanes().ranks.size() == trace.ranks.size(),
                   "replay program was lowered from another trace");
    procs_.resize(static_cast<std::size_t>(trace.num_ranks));
    inbox_.resize(static_cast<std::size_t>(trace.num_ranks));
    for (Rank r = 0; r < trace.num_ranks; ++r) {
      Proc& proc = procs_[static_cast<std::size_t>(r)];
      proc.rank = r;
      proc.requests.assign(stream(proc).request_slots, kUnissued);
    }
    if (options.collect_metrics) {
      // Only the Paraver counter records read occupancy samples, and a
      // Paraver bundle needs the recorded timeline or comms.
      collector_ = std::make_unique<metrics::ReplayCollector>(
          trace.num_ranks, platform.num_nodes,
          /*keep_samples=*/options.record_timeline || options.record_comms);
      network_->set_collector(collector_.get());
    }
    if (options.faults.enabled()) {
      injector_ = std::make_unique<faults::FaultInjector>(options.faults);
      network_->set_fault_injector(injector_.get());
    }
  }

  SimResult run() {
    for (auto& proc : procs_) {
      // All ranks start at t=0 (the paper replays one process per node).
      events_.schedule(0.0, [this, &proc] { step(proc); });
    }
    // Cancellation polling is amortized: one check() per kCancelPollStride
    // DES events, plus one on the very first event so tiny traces are
    // still cancellable. With no armed token the per-event cost is a
    // single predictable branch on a cached bool — measured as noise by
    // the osim_perf gate.
    const bool poll_cancel =
        options_.cancel != nullptr && options_.cancel->armed();
    std::uint64_t next_poll = 1;
    while (events_.run_one()) {
      if (events_.now() > options_.max_sim_time_s) {
        throw Error(strprintf(
            "replay exceeded max_sim_time (%.6g s); likely runaway trace",
            options_.max_sim_time_s));
      }
      if (poll_cancel && events_.events_processed() >= next_poll) {
        next_poll = events_.events_processed() + kCancelPollStride;
        const StopCause cause = options_.cancel->check();
        if (cause != StopCause::kNone) {
          throw CancelledError(cause, partial_progress());
        }
      }
    }
    check_all_finished();

    SimResult result;
    result.rank_stats.reserve(procs_.size());
    for (auto& proc : procs_) {
      result.makespan = std::max(result.makespan, proc.stats.finish_time);
      result.rank_stats.push_back(proc.stats);
    }
    if (options_.record_timeline) {
      result.timelines.reserve(procs_.size());
      for (auto& proc : procs_) {
        result.timelines.push_back(std::move(proc.timeline));
      }
    }
    if (options_.record_comms) {
      result.comms.reserve(comms_.size());
      for (const CommEvent* comm : comms_) result.comms.push_back(*comm);
    }
    if (collector_ != nullptr) {
      result.metrics = std::make_shared<const metrics::ReplayMetrics>(
          collector_->finish(result.makespan));
    }
    if (injector_ != nullptr) result.fault_counts = injector_->counts();
    result.des_events = events_.events_processed();
    return result;
  }

 private:
  /// Snapshot of what the replay had simulated when a cancel fired. Blocked
  /// spans still open at the stop are counted up to the current simulated
  /// time, so a supervisor's partial wait attribution reflects ranks stuck
  /// mid-wait — exactly the ones a timeout usually implicates.
  PartialProgress partial_progress() const {
    PartialProgress partial;
    partial.sim_time_s = events_.now();
    partial.des_events = events_.events_processed();
    for (const auto& proc : procs_) {
      partial.compute_s += proc.stats.compute_s;
      partial.blocked_s += proc.stats.blocked_s();
      if (proc.blocked && events_.now() > proc.block_begin) {
        partial.blocked_s += events_.now() - proc.block_begin;
      }
      if (proc.finished) ++partial.ranks_finished;
    }
    return partial;
  }

  // --- bookkeeping types --------------------------------------------------
  //
  // SendSide / PostedRecv / CommEvent are arena-allocated: one bump-pointer
  // allocation per message, stable addresses, and everything is released
  // wholesale when the run ends (they are trivially destructible).

  struct PostedRecv;

  struct SendSide {
    Rank src = 0;
    Rank dst = 0;
    Tag tag = 0;
    std::uint64_t bytes = 0;
    bool immediate = false;
    std::uint32_t request = trace::kNoRequestSlot;
    bool eager = false;
    bool arrived = false;
    double call_time = 0.0;  // when the sender reached the send record
    /// Per-source message sequence number: the loss model's decision index,
    /// assigned in record order so it is independent of event scheduling.
    std::uint64_t fault_seq = 0;
    PostedRecv* partner = nullptr;
    CommEvent* comm = nullptr;  // arena-owned; null unless recording
    // Submit/start timestamps and queue reason for wait-time attribution;
    // only filled in when metrics collection is on.
    metrics::TransferTiming timing;
  };

  struct PostedRecv {
    Rank src = kAnyRank;
    Tag tag = kAnyTag;
    std::uint64_t bytes = 0;
    Rank dst = 0;
    bool immediate = false;
    std::uint32_t request = trace::kNoRequestSlot;
    double post_time = 0.0;  // when the receiver posted the recv
    SendSide* partner = nullptr;
    bool complete = false;
  };

  struct Proc {
    Rank rank = 0;
    std::size_t pc = 0;  // next record
    /// Next entry of each lane (indexed by LaneKind): records of one kind
    /// occupy their lane in record order.
    std::array<std::uint32_t, trace::kLaneKinds> lane_next{};
    bool running = false;   // guards against re-entrant step()
    bool finished = false;
    // Block bookkeeping.
    bool blocked = false;
    RankState block_state = RankState::kCompute;
    double block_begin = 0.0;
    std::size_t outstanding = 0;  // incomplete requests a Wait waits on
    PostedRecv* blocking_recv = nullptr;
    // Cause of the current wait block: the *last* releasing completion
    // wins (latest completion time; on ties, a real remote cause beats
    // "released by pure network time"). Reset when a Wait blocks.
    Rank wait_cause_rank = -1;
    double wait_cause_time = 0.0;
    double wait_release_time = 0.0;
    const SendSide* wait_releaser = nullptr;
    bool wait_completed_any = false;
    /// RequestState by request slot.
    std::vector<std::uint8_t> requests;
    /// Request slots the currently-blocked Wait still needs (small; a
    /// linear scan is cheap and deterministic).
    std::vector<std::uint32_t> waited;
    // Running per-rank decision indices for fault injection.
    std::uint64_t burst_seq = 0;
    std::uint64_t send_seq = 0;
    // MPI-activity window for the application-driven progress regime:
    // `computing` is true while a compute burst is in flight, i.e. the
    // rank is outside MPI until `compute_until` (its next enter-MPI
    // event). Maintained in every regime (two stores per burst), read
    // only under application-driven progress.
    bool computing = false;
    double compute_until = 0.0;
    /// Progress actions frozen by the current compute burst (app-driven
    /// regime only): handshake hops and completion observations, run in
    /// defer order at the rank's next MPI activity. Always empty in the
    /// other regimes.
    std::vector<InlineFunction<void()>> pending_mpi;
    bool drain_scheduled = false;
    RankStats stats;
    std::vector<StateInterval> timeline;
  };

  struct Inbox {
    std::deque<SendSide*> unmatched_sends;   // announce order
    std::deque<PostedRecv*> unmatched_recvs; // post order
  };

  // --- helpers --------------------------------------------------------------

  const CompiledStream& stream(const Proc& proc) const {
    return program_.lanes().ranks[static_cast<std::size_t>(proc.rank)];
  }

  double now() const { return events_.now(); }

  bool app_driven() const {
    return options_.progress.regime == ProgressRegime::kApplicationDriven;
  }

  // Runs `fn` now if `proc` can progress MPI work — it is blocked in an
  // MPI call, between records, or finished — and otherwise freezes it in
  // the rank's pending queue until its next MPI activity: the next
  // send/recv/wait record drains the queue on entry, and the end of the
  // compute burst drains whatever is left. Only the application-driven
  // regime ever defers; every other regime runs `fn` inline, which is
  // exactly the pre-axis event order.
  template <typename Fn>
  void run_in_mpi(Proc& proc, Fn fn) {
    if (!app_driven() || !proc.computing) {
      fn();
      return;
    }
    proc.pending_mpi.emplace_back(fn);
    if (!proc.drain_scheduled) {
      proc.drain_scheduled = true;
      events_.schedule(proc.compute_until,
                       [this, &proc] { drain_pending_event(proc); });
    }
  }

  /// Like run_in_mpi, but never before `time` (clamped to now()).
  template <typename Fn>
  void run_in_mpi_at(Proc& proc, double time, Fn fn) {
    if (time <= now()) {
      run_in_mpi(proc, fn);
      return;
    }
    events_.schedule(time, [this, &proc, fn] { run_in_mpi(proc, fn); });
  }

  /// Burst-end fallback for frozen progress actions: if the rank chained
  /// straight into another compute burst (no MPI record in between), keep
  /// waiting; otherwise the rank is at an MPI boundary — run them.
  void drain_pending_event(Proc& proc) {
    if (proc.computing) {
      events_.schedule(proc.compute_until,
                       [this, &proc] { drain_pending_event(proc); });
      return;
    }
    proc.drain_scheduled = false;
    drain_pending(proc);
  }

  /// Runs the frozen progress actions in defer order. Draining never
  /// re-appends: run_in_mpi only defers while the rank is computing, and
  /// every drain site has computing == false.
  void drain_pending(Proc& proc) {
    for (std::size_t i = 0; i < proc.pending_mpi.size(); ++i) {
      proc.pending_mpi[i]();
    }
    proc.pending_mpi.clear();
  }

  void add_interval(Proc& proc, double begin, double end, RankState state) {
    if (!options_.record_timeline || end <= begin) return;
    proc.timeline.push_back(StateInterval{begin, end, state});
  }

  void block(Proc& proc, RankState state) {
    OSIM_CHECK(!proc.blocked);
    proc.blocked = true;
    proc.block_state = state;
    proc.block_begin = now();
  }

  void unblock(Proc& proc, Rank cause_rank = -1, double cause_time = 0.0,
               const SendSide* releaser = nullptr) {
    OSIM_CHECK(proc.blocked);
    proc.blocked = false;
    const double blocked_for = now() - proc.block_begin;
    switch (proc.block_state) {
      case RankState::kSendBlocked:
        proc.stats.send_blocked_s += blocked_for;
        break;
      case RankState::kRecvBlocked:
        proc.stats.recv_blocked_s += blocked_for;
        break;
      case RankState::kWaitBlocked:
        proc.stats.wait_blocked_s += blocked_for;
        break;
      default:
        OSIM_UNREACHABLE("bad block state");
    }
    if (options_.record_timeline && now() > proc.block_begin) {
      proc.timeline.push_back(StateInterval{proc.block_begin, now(),
                                            proc.block_state, cause_rank,
                                            cause_time});
    }
    if (collector_ != nullptr && now() > proc.block_begin) {
      metrics::BlockKind kind = metrics::BlockKind::kWait;
      if (proc.block_state == RankState::kSendBlocked) {
        kind = metrics::BlockKind::kSend;
      } else if (proc.block_state == RankState::kRecvBlocked) {
        kind = metrics::BlockKind::kRecv;
      }
      Rank peer = -1;
      if (releaser != nullptr) {
        peer = releaser->src == proc.rank ? releaser->dst : releaser->src;
      }
      collector_->attribute(proc.rank, peer, kind, proc.block_begin, now(),
                            releaser != nullptr ? &releaser->timing : nullptr);
    }
    if (!proc.running) {
      // Resume the interpretation loop in a fresh event so the current
      // callback stack unwinds first.
      events_.schedule(now(), [this, &proc] { step(proc); });
    }
  }

  // Tracks which completion releases a blocked Wait. The last one (latest
  // completion time) wins; at equal times a real remote cause beats
  // cause_rank == -1, and among real causes the latest remote constraint
  // wins. Without the tie-break, FIFO event order could surface a
  // simultaneous completion with no cause and hide the true releaser.
  void record_wait_release(Proc& proc, Rank cause_rank, double cause_time,
                           const SendSide* releaser) {
    const double t = now();
    bool adopt = false;
    if (!proc.wait_completed_any || t > proc.wait_release_time) {
      adopt = true;
    } else if (t == proc.wait_release_time) {
      if (proc.wait_cause_rank == -1) {
        adopt = cause_rank != -1;
      } else if (cause_rank != -1) {
        adopt = cause_time > proc.wait_cause_time;
      }
    }
    if (adopt) {
      proc.wait_cause_rank = cause_rank;
      proc.wait_cause_time = cause_time;
      proc.wait_releaser = releaser;
    }
    proc.wait_completed_any = true;
    proc.wait_release_time = std::max(proc.wait_release_time, t);
  }

  /// Marks an immediate op's request slot pending.
  static void issue_request(Proc& proc, std::uint32_t request) {
    std::uint8_t& state = proc.requests[request];
    OSIM_CHECK_MSG(state == kUnissued, "duplicate request id in trace");
    state = kPending;
  }

  void complete_request(Proc& proc, std::uint32_t request,
                        Rank cause_rank = -1, double cause_time = 0.0,
                        const SendSide* releaser = nullptr) {
    std::uint8_t& state = proc.requests[request];
    OSIM_CHECK_MSG(state != kUnissued,
                   "request completion for unknown request");
    OSIM_CHECK(state == kPending);
    state = kComplete;
    if (proc.blocked && proc.block_state == RankState::kWaitBlocked) {
      OSIM_CHECK(proc.outstanding > 0);
      // Only decrement if this request is among the waited set — the wait
      // installed `outstanding` as the count of incomplete waited requests
      // and listed them in proc.waited.
      const auto waited =
          std::find(proc.waited.begin(), proc.waited.end(), request);
      if (waited != proc.waited.end()) {
        *waited = proc.waited.back();
        proc.waited.pop_back();
        record_wait_release(proc, cause_rank, cause_time, releaser);
        if (--proc.outstanding == 0) {
          unblock(proc, proc.wait_cause_rank, proc.wait_cause_time,
                  proc.wait_releaser);
        }
      }
    }
  }

  // --- record interpretation -------------------------------------------

  void step(Proc& proc) {
    if (proc.finished || proc.blocked) return;
    proc.running = true;
    const CompiledStream& recs = stream(proc);
    const std::size_t n = recs.records();
    while (!proc.blocked && proc.pc < n) {
      const LaneKind kind = recs.kind[proc.pc++];
      const std::uint32_t slot =
          proc.lane_next[static_cast<std::size_t>(kind)]++;
      switch (kind) {
        case LaneKind::kCpu:
          do_compute(proc, recs.burst_instructions[slot]);
          proc.running = false;
          return;  // resumes via the scheduled wake-up
        case LaneKind::kSend:
          do_send(proc, recs, slot);
          break;
        case LaneKind::kRecv:
          do_recv(proc, recs, slot);
          break;
        case LaneKind::kWait:
          do_wait(proc, recs, slot);
          break;
      }
    }
    proc.running = false;
    if (!proc.blocked && proc.pc >= n) {
      proc.finished = true;
      proc.stats.finish_time = now();
    }
  }

  void do_compute(Proc& proc, std::uint64_t instructions) {
    double duration =
        static_cast<double>(instructions) /
        (trace_.mips * 1.0e6 * platform_.node_cpu_speed(proc.rank));
    if (injector_ != nullptr) {
      duration = injector_->perturb_compute(proc.rank, proc.burst_seq++,
                                            now(), duration);
    }
    if (options_.progress.regime == ProgressRegime::kProgressThread) {
      // The progress thread steals cycles: the burst stretches by the
      // configured CPU tax (and communication keeps advancing, as under
      // offload).
      duration *= 1.0 + options_.progress.thread_cpu_tax;
    }
    proc.stats.compute_s += duration;
    add_interval(proc, now(), now() + duration, RankState::kCompute);
    proc.computing = true;
    proc.compute_until = now() + duration;
    events_.schedule(now() + duration, [this, &proc] {
      proc.computing = false;
      step(proc);
    });
  }

  void do_send(Proc& proc, const CompiledStream& recs, std::uint32_t slot) {
    // Entering an MPI call progresses the engine (app-driven regime):
    // frozen handshakes and completions run before the call's own work.
    if (!proc.pending_mpi.empty()) drain_pending(proc);
    SendSide* send = arena_.make<SendSide>();
    send->src = proc.rank;
    send->dst = recs.send_dest[slot];
    send->tag = recs.send_tag[slot];
    send->bytes = recs.send_bytes[slot];
    send->request = recs.send_request[slot];
    const bool immediate = send->request != trace::kNoRequestSlot;
    send->immediate = immediate;
    send->eager = recs.send_synchronous[slot] == 0 &&
                  send->bytes <= platform_.eager_threshold_bytes;
    send->call_time = now();
    send->fault_seq = proc.send_seq++;
    if (options_.record_comms) {
      send->comm = arena_.make<CommEvent>();
      comms_.push_back(send->comm);
      send->comm->src = send->src;
      send->comm->dst = send->dst;
      send->comm->tag = send->tag;
      send->comm->bytes = send->bytes;
      send->comm->send_call_time = now();
    }
    proc.stats.messages_sent++;
    proc.stats.bytes_sent += send->bytes;
    if (collector_ != nullptr) {
      collector_->count_message(send->eager, send->bytes);
    }

    if (immediate) issue_request(proc, send->request);

    match_send(send);

    if (send->eager) {
      // Eager: the message leaves immediately; local completion is instant.
      submit_transfer(send);
      if (immediate) complete_request(proc, send->request);
      return;  // blocking eager send does not block
    }
    // Rendezvous: transfer starts when the partner recv is posted.
    if (send->partner != nullptr) start_rendezvous(send);
    if (!immediate) {
      block(proc, RankState::kSendBlocked);  // until arrival
    }
    // Immediate rendezvous send: request completes at arrival.
  }

  void do_recv(Proc& proc, const CompiledStream& recs, std::uint32_t slot) {
    if (!proc.pending_mpi.empty()) drain_pending(proc);
    PostedRecv* recv = arena_.make<PostedRecv>();
    recv->src = recs.recv_src[slot];
    recv->tag = recs.recv_tag[slot];
    recv->bytes = recs.recv_bytes[slot];
    recv->dst = proc.rank;
    recv->request = recs.recv_request[slot];
    const bool immediate = recv->request != trace::kNoRequestSlot;
    recv->immediate = immediate;
    recv->post_time = now();
    proc.stats.messages_received++;

    if (immediate) issue_request(proc, recv->request);

    match_recv(recv);
    if (recv->partner != nullptr) {
      if (recv->partner->comm != nullptr) {
        recv->partner->comm->recv_post_time = now();
      }
      if (recv->partner->arrived) {
        // Message already fully here: the recv completes instantly.
        finish_recv(*recv);
        return;
      }
      if (!recv->partner->eager) start_rendezvous(recv->partner);
    }
    if (!immediate && !recv->complete) {
      proc.blocking_recv = recv;
      block(proc, RankState::kRecvBlocked);
    }
  }

  void do_wait(Proc& proc, const CompiledStream& recs, std::uint32_t slot) {
    if (!proc.pending_mpi.empty()) drain_pending(proc);
    std::size_t incomplete = 0;
    proc.waited.clear();
    const std::uint32_t begin = recs.wait_begin[slot];
    const std::uint32_t end = recs.wait_begin[slot + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t req = recs.wait_requests[k];
      const std::uint8_t state = proc.requests[req];
      OSIM_CHECK_MSG(state != kUnissued,
                     "wait on unknown request (trace not validated?)");
      if (state == kPending) {
        proc.waited.push_back(req);
        ++incomplete;
      }
      // Completed requests are consumed by the wait.
    }
    if (incomplete == 0) return;
    proc.outstanding = incomplete;
    proc.wait_cause_rank = -1;
    proc.wait_cause_time = 0.0;
    proc.wait_release_time = 0.0;
    proc.wait_releaser = nullptr;
    proc.wait_completed_any = false;
    block(proc, RankState::kWaitBlocked);
  }

  // --- matching ---------------------------------------------------------

  static bool matches(const PostedRecv& recv, const SendSide& send) {
    return envelope_matches(
        RecvEnvelope{recv.src, recv.dst, recv.tag, recv.bytes},
        SendEnvelope{send.src, send.dst, send.tag, send.bytes});
  }

  void match_send(SendSide* send) {
    Inbox& inbox = inbox_[static_cast<std::size_t>(send->dst)];
    for (auto it = inbox.unmatched_recvs.begin();
         it != inbox.unmatched_recvs.end(); ++it) {
      if (matches(**it, *send)) {
        PostedRecv* recv = *it;
        inbox.unmatched_recvs.erase(it);
        send->partner = recv;
        recv->partner = send;
        if (send->comm != nullptr) {
          // recv was posted before this send.
          send->comm->recv_post_time = recv->post_time;
        }
        return;
      }
    }
    inbox.unmatched_sends.push_back(send);
  }

  void match_recv(PostedRecv* recv) {
    Inbox& inbox = inbox_[static_cast<std::size_t>(recv->dst)];
    for (auto it = inbox.unmatched_sends.begin();
         it != inbox.unmatched_sends.end(); ++it) {
      if (matches(*recv, **it)) {
        SendSide* send = *it;
        inbox.unmatched_sends.erase(it);
        recv->partner = send;
        send->partner = recv;
        return;
      }
    }
    inbox.unmatched_recvs.push_back(recv);
  }

  // --- transfers ----------------------------------------------------------

  // Starts the data transfer of a matched rendezvous pair. Under offload
  // and progress-thread regimes the handshake is free — hardware (or the
  // progress thread) advances it while the hosts compute, so the transfer
  // enters the network the instant both sides are known, exactly the
  // historical behavior. Under application-driven progress the handshake
  // itself needs host attention: the RTS (issued at the send call)
  // reaches the receiver after one fixed-latency hop but is only noticed
  // inside one of the receiver's MPI calls; the CTS answer likewise costs
  // a hop and is only noticed inside one of the sender's MPI calls. Only
  // then does the payload enter the network. The extra time relative to
  // the ungated model is recorded as timing.progress_delay_s so the
  // wait-attribution collectors can bill it to the progress_s cause.
  void start_rendezvous(SendSide* send) {
    if (!app_driven()) {
      submit_transfer(send);
      return;
    }
    const double trigger = now();
    const double hop = network_->fixed_latency_s();
    Proc& receiver = procs_[static_cast<std::size_t>(send->dst)];
    run_in_mpi_at(receiver, send->call_time + hop, [this, send, trigger] {
      Proc& sender = procs_[static_cast<std::size_t>(send->src)];
      run_in_mpi_at(sender, now() + network_->fixed_latency_s(),
                    [this, send, trigger] {
                      if (collector_ != nullptr) {
                        send->timing.progress_delay_s = now() - trigger;
                      }
                      submit_transfer(send);
                    });
    });
  }

  void submit_transfer(SendSide* send) {
    // The loss model's injected delay (retransmission backoff) postpones
    // the message's entry into the network; dropped attempts never occupy
    // the wire. Sampled here — the submission point — for both eager
    // payloads and rendezvous handshakes.
    double fault_delay = 0.0;
    if (injector_ != nullptr) {
      fault_delay =
          injector_->loss_delay_s(send->src, send->fault_seq, send->eager);
    }
    if (collector_ != nullptr) {
      send->timing.submit_s = now();
      send->timing.fault_delay_s = fault_delay;
    }
    if (fault_delay > 0.0) {
      events_.schedule(now() + fault_delay,
                       [this, send] { enter_network(send); });
      return;
    }
    enter_network(send);
  }

  void enter_network(SendSide* send) {
    Transfer transfer{send->src, send->dst, send->bytes};
    CommEvent* comm = send->comm;
    StartFn on_start;
    if (collector_ != nullptr) {
      send->timing.fixed_latency_s = network_->fixed_latency_s();
      on_start = [send](double time) {
        send->timing.start_s = time;
        if (send->comm != nullptr) send->comm->transfer_start = time;
      };
    } else if (comm != nullptr) {
      on_start = [comm](double time) { comm->transfer_start = time; };
    }
    network_->submit(transfer,
                     [this, send](double time) { on_arrival(send, time); },
                     std::move(on_start));
    if (collector_ != nullptr && send->timing.start_s < 0.0) {
      // Still queued after submit: sample what blocked admission. This is
      // accurate because the network starts every pending transfer that
      // fits before submit() returns, so an unstarted transfer has a
      // concrete blocking resource right now.
      send->timing.queue_reason = network_->admission_block(transfer);
    }
  }

  void on_arrival(SendSide* send, double time) {
    send->arrived = true;
    if (send->comm != nullptr) send->comm->arrival_time = time;
    if (collector_ != nullptr) send->timing.arrival_s = time;
    Proc& sender = procs_[static_cast<std::size_t>(send->src)];
    if (!send->eager) {
      // Rendezvous completion on the sender side. Under application-driven
      // progress a computing sender only observes it at its next enter-MPI
      // event; run_in_mpi is inline in every other regime.
      run_in_mpi(sender, [this, send] { complete_send_side(send); });
    }
    if (send->partner != nullptr) {
      // Delivery to the receiver, gated the same way. The pair
      // (send, partner) is final here: matching happened before the
      // transfer could start, so a deferred delivery cannot race with the
      // do_recv inline-completion path (that path only runs when the
      // message had already arrived unmatched, i.e. partner was null now).
      Proc& receiver = procs_[static_cast<std::size_t>(send->partner->dst)];
      run_in_mpi(receiver, [this, send] { finish_recv(*send->partner); });
    }
  }

  void complete_send_side(SendSide* send) {
    Proc& sender = procs_[static_cast<std::size_t>(send->src)];
    // The causal constraint is the receive post when it gated the
    // transfer start.
    Rank cause_rank = -1;
    double cause_time = 0.0;
    if (send->partner != nullptr &&
        send->partner->post_time > send->call_time) {
      cause_rank = send->dst;
      cause_time = send->partner->post_time;
    }
    if (send->immediate) {
      complete_request(sender, send->request, cause_rank, cause_time, send);
    } else {
      unblock(sender, cause_rank, cause_time, send);
    }
  }

  void finish_recv(PostedRecv& recv) {
    OSIM_CHECK(!recv.complete);
    OSIM_CHECK(recv.partner != nullptr && recv.partner->arrived);
    recv.complete = true;
    if (recv.partner->comm != nullptr) {
      recv.partner->comm->recv_complete_time = now();
    }
    Proc& receiver = procs_[static_cast<std::size_t>(recv.dst)];
    // Delivery accounting: the global sums of bytes_sent and
    // bytes_received match once every message has been delivered.
    receiver.stats.bytes_received += recv.partner->bytes;
    // The causal constraint is the sender's send call when it happened
    // after this receive was posted (the receiver truly waited on it).
    Rank cause_rank = -1;
    double cause_time = 0.0;
    if (recv.partner->call_time > recv.post_time) {
      cause_rank = recv.partner->src;
      cause_time = recv.partner->call_time;
    }
    if (recv.immediate) {
      complete_request(receiver, recv.request, cause_rank, cause_time,
                       recv.partner);
      return;
    }
    if (receiver.blocking_recv == &recv) {
      receiver.blocking_recv = nullptr;
      if (receiver.blocked &&
          receiver.block_state == RankState::kRecvBlocked) {
        unblock(receiver, cause_rank, cause_time, recv.partner);
      }
      // If the receiver never blocked (message was already here when the
      // recv posted), step() simply continues inline.
    }
  }

  void check_all_finished() const {
    if (std::all_of(procs_.begin(), procs_.end(),
                    [](const Proc& proc) { return proc.finished; })) {
      return;
    }
    // Diagnostics render the variant stream the program was compiled from
    // (same record order): the trace, or its collective expansion, rebuilt
    // here so that only a deadlocked replay pays for it.
    trace::Trace expanded;
    const trace::Trace* replayed = &trace_;
    if (options_.auto_expand_collectives && has_collectives(trace_)) {
      expanded = expand_collectives(trace_, options_.collective_algo);
      replayed = &expanded;
    }
    std::vector<std::string> stuck;
    for (const auto& proc : procs_) {
      if (proc.finished) continue;
      const auto& recs =
          replayed->ranks[static_cast<std::size_t>(proc.rank)];
      const std::size_t at = proc.pc == 0 ? 0 : proc.pc - 1;
      stuck.push_back(strprintf(
          "rank %d %s at record %zu/%zu: %s", proc.rank,
          proc.blocked ? rank_state_name(proc.block_state) : "stalled", at,
          recs.size(),
          at < recs.size() ? trace::to_string(recs[at]).c_str() : "<end>"));
    }
    if (!stuck.empty()) {
      throw Error("replay deadlock:\n  " + join(stuck, "\n  "));
    }
  }

 private:
  const trace::Trace& trace_;
  const ReplayProgram& program_;
  const Platform& platform_;
  const ReplayOptions& options_;
  EventQueue events_;
  std::unique_ptr<Network> network_;
  std::vector<Proc> procs_;
  std::vector<Inbox> inbox_;
  Arena arena_;  // SendSide / PostedRecv / CommEvent storage
  std::vector<CommEvent*> comms_;
  std::unique_ptr<metrics::ReplayCollector> collector_;  // null unless on
  std::unique_ptr<faults::FaultInjector> injector_;      // null unless on
};

}  // namespace

bool same_lowering(const ReplayOptions& a, const ReplayOptions& b) {
  return a.auto_expand_collectives == b.auto_expand_collectives &&
         a.collective_algo == b.collective_algo;
}

bool ReplayProgram::lowered_for(const ReplayOptions& options) const {
  return expanded_collectives_ == options.auto_expand_collectives &&
         collective_algo_ == options.collective_algo;
}

ReplayProgram lower(const trace::Trace& trace, const ReplayOptions& options) {
  ReplayProgram program;
  program.expanded_collectives_ = options.auto_expand_collectives;
  program.collective_algo_ = options.collective_algo;
  // compile() rejects surviving GlobalOps.
  program.lanes_ =
      options.auto_expand_collectives && has_collectives(trace)
          ? trace::compile(expand_collectives(trace, options.collective_algo))
          : trace::compile(trace);
  return program;
}

SimResult replay(const trace::Trace& trace, const ReplayProgram& program,
                 const Platform& platform, const ReplayOptions& options) {
  return Replayer(trace, program, platform, options).run();
}

SimResult replay(const trace::Trace& trace, const Platform& platform,
                 const ReplayOptions& options) {
  return replay(trace, lower(trace, options), platform, options);
}

}  // namespace osim::dimemas
