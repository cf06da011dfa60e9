// Network models.
//
// BusNetwork implements the published Dimemas interconnect model: a message
// occupies one output port at the source node, one input port at the
// destination node, and one global bus for `latency + bytes/bandwidth`
// seconds; messages queue FIFO (first-fit) when resources are exhausted.
// The queue is indexed by source and destination node, so a release looks
// only at the transfers the freed ports could unblock.
//
// FairShareNetwork is the *detailed reference machine* of our reproduction
// (DESIGN.md substitutions): concurrent transfers share per-node links and a
// finite switch fabric with max-min fair rates that are recomputed whenever
// a flow starts or finishes. It is used as the stand-in for "a real run on
// the Marenostrum supercomputer" when calibrating the bus count (Table I).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "common/inline_function.hpp"
#include "dimemas/events.hpp"
#include "dimemas/fairshare.hpp"
#include "dimemas/platform.hpp"
#include "metrics/collector.hpp"
#include "trace/record.hpp"

namespace osim::faults {
class FaultInjector;
}

namespace osim::dimemas {

struct Transfer {
  trace::Rank src = 0;
  trace::Rank dst = 0;
  std::uint64_t bytes = 0;
};

/// Invoked exactly once per submitted transfer, at arrival time, with the
/// simulated arrival timestamp. A second callback reports when the wire
/// time actually began (for visualization); it may be dropped. Move-only:
/// the replay engine's callbacks (two pointers at most) sit in the inline
/// buffer, and a BusNetwork arrival event that carries one still fits the
/// event queue's handler buffer.
using ArrivalFn = InlineFunction<void(double), 24>;
using StartFn = InlineFunction<void(double), 24>;

class Network {
 public:
  explicit Network(EventQueue& events) : events_(events) {}
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Hands a message to the network at the current simulated time.
  virtual void submit(const Transfer& transfer, ArrivalFn on_arrival,
                      StartFn on_start = nullptr) = 0;

  /// Transfers currently in flight or queued (diagnostics).
  virtual std::size_t in_flight() const = 0;

  /// Wires the optional metrics collector (nullptr disables occupancy
  /// tracking). Called once, before the first submit. Tracking is passive:
  /// it never changes event scheduling, so replay results are bit-identical
  /// with a collector attached or not.
  virtual void set_collector(metrics::ReplayCollector* collector) {
    collector_ = collector;
  }

  /// Why a transfer submitted at the current instant would queue instead of
  /// starting (kNone = it would start immediately). Used by the replay
  /// engine to classify queueing delay as bus vs port contention.
  virtual metrics::QueueReason admission_block(const Transfer&) const {
    return metrics::QueueReason::kNone;
  }

  /// The model's fixed per-message delay (the latency term of the wait-time
  /// decomposition).
  virtual double fixed_latency_s() const = 0;

  /// Wires the optional fault injector (nullptr disables link-degradation
  /// sampling). Called once, before the first submit. With no injector the
  /// transfer-timing code paths are exactly the pre-fault ones, keeping
  /// fault-free replays bit-identical.
  void set_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
  }

 protected:
  EventQueue& events_;
  metrics::ReplayCollector* collector_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
};

class BusNetwork final : public Network {
 public:
  BusNetwork(EventQueue& events, const Platform& platform);

  void submit(const Transfer& transfer, ArrivalFn on_arrival,
              StartFn on_start = nullptr) override;
  std::size_t in_flight() const override { return active_ + queued_; }
  void set_collector(metrics::ReplayCollector* collector) override;
  metrics::QueueReason admission_block(const Transfer& transfer) const override;
  double fixed_latency_s() const override { return latency_s_; }

  /// End-to-end duration for `bytes` with no queueing: latency + bytes/bw.
  double wire_time(std::uint64_t bytes) const;
  /// Time the message occupies ports/buses: bytes/bw (latency pipelines).
  double serialization_time(std::uint64_t bytes) const;

 private:
  void record_occupancy(const Transfer& transfer) const;

  // Queued transfers live in a slab of slots, threaded on three intrusive
  // lists that all run in submission order: every queued transfer, the
  // ones from each source node, and the ones to each destination node.
  static constexpr std::uint32_t kNil = UINT32_MAX;
  enum Chain : std::size_t { kAll, kBySrc, kByDst, kChains };
  struct Link {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Pending {
    Transfer transfer;
    ArrivalFn on_arrival;
    StartFn on_start;
    std::uint64_t seq = 0;  // submission order, for merging two lists
    Link links[kChains];
  };

  bool bus_pool_full() const {
    return num_buses_ > 0 && buses_in_use_ >= num_buses_;
  }
  bool can_start(const Transfer& transfer) const;
  void start(const Transfer& transfer, ArrivalFn on_arrival,
             StartFn on_start);
  void release(const Transfer& transfer);
  void enqueue(const Transfer& transfer, ArrivalFn on_arrival,
               StartFn on_start);
  void start_queued(std::uint32_t slot);
  void start_queued_on(trace::Rank src, trace::Rank dst);
  void start_queued_first_fit();
  List& list_of(Chain chain, const Transfer& transfer);
  void link_tail(Chain chain, std::uint32_t slot);
  void unlink(Chain chain, std::uint32_t slot);

  const double latency_s_;
  const double overhead_s_;
  const double bytes_per_s_;
  const std::int32_t num_buses_;  // 0 = unlimited
  std::vector<std::int32_t> out_in_use_;
  std::vector<std::int32_t> in_in_use_;
  const std::int32_t output_ports_;
  const std::int32_t input_ports_;
  std::int32_t buses_in_use_ = 0;
  std::size_t active_ = 0;
  std::vector<Pending> slots_;
  std::vector<std::uint32_t> free_slots_;
  List queue_;
  std::vector<List> by_src_;
  std::vector<List> by_dst_;
  std::size_t queued_ = 0;
  std::uint64_t next_seq_ = 0;
};

class FairShareNetwork final : public Network {
 public:
  FairShareNetwork(EventQueue& events, const Platform& platform);

  void submit(const Transfer& transfer, ArrivalFn on_arrival,
              StartFn on_start = nullptr) override;
  std::size_t in_flight() const override;
  /// Includes the per-message overhead: the fair-share model charges it as
  /// additional fixed delay before the flow starts.
  double fixed_latency_s() const override { return latency_s_; }

 private:
  struct Flow {
    Transfer transfer;
    double remaining_bytes = 0.0;
    double rate = 0.0;
    /// Fault-injected bandwidth degradation, sampled once at activation.
    double rate_scale = 1.0;
    ArrivalFn on_arrival;
  };

  void activate(Flow flow);
  void update_progress();
  void rebalance();
  void on_completion_event(std::uint64_t generation);

  const double latency_s_;
  const FairShareCaps caps_;
  std::list<Flow> active_;
  std::size_t latency_stage_ = 0;  // flows still in their latency phase
  double last_update_ = 0.0;
  std::uint64_t generation_ = 0;
};

/// Factory dispatching on Platform::model.
std::unique_ptr<Network> make_network(EventQueue& events,
                                      const Platform& platform);

}  // namespace osim::dimemas
