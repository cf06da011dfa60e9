#include "dimemas/network.hpp"

#include <algorithm>
#include <limits>

#include "common/expect.hpp"
#include "faults/injector.hpp"

namespace osim::dimemas {

// ---------------------------------------------------------------------------
// BusNetwork
// ---------------------------------------------------------------------------

BusNetwork::BusNetwork(EventQueue& events, const Platform& platform)
    : Network(events),
      latency_s_(platform.latency_s()),
      overhead_s_(platform.per_message_overhead_s()),
      bytes_per_s_(platform.bandwidth_Bps()),
      num_buses_(platform.num_buses),
      out_in_use_(static_cast<std::size_t>(platform.num_nodes), 0),
      in_in_use_(static_cast<std::size_t>(platform.num_nodes), 0),
      output_ports_(platform.output_ports),
      input_ports_(platform.input_ports),
      by_src_(static_cast<std::size_t>(platform.num_nodes)),
      by_dst_(static_cast<std::size_t>(platform.num_nodes)) {
  OSIM_CHECK(platform.num_nodes > 0);
  OSIM_CHECK(bytes_per_s_ > 0.0);
  OSIM_CHECK(latency_s_ >= 0.0);
  OSIM_CHECK(num_buses_ >= 0);
  OSIM_CHECK(output_ports_ > 0 && input_ports_ > 0);
}

double BusNetwork::wire_time(std::uint64_t bytes) const {
  return latency_s_ + static_cast<double>(bytes) / bytes_per_s_;
}

double BusNetwork::serialization_time(std::uint64_t bytes) const {
  return overhead_s_ + static_cast<double>(bytes) / bytes_per_s_;
}

bool BusNetwork::can_start(const Transfer& transfer) const {
  if (bus_pool_full()) return false;
  if (out_in_use_[static_cast<std::size_t>(transfer.src)] >= output_ports_)
    return false;
  if (in_in_use_[static_cast<std::size_t>(transfer.dst)] >= input_ports_)
    return false;
  return true;
}

void BusNetwork::set_collector(metrics::ReplayCollector* collector) {
  collector_ = collector;
  if (collector_ == nullptr) return;
  collector_->bus_tracker().set_capacity(num_buses_);
  for (std::size_t n = 0; n < out_in_use_.size(); ++n) {
    const auto node = static_cast<trace::Rank>(n);
    collector_->out_tracker(node).set_capacity(output_ports_);
    collector_->in_tracker(node).set_capacity(input_ports_);
  }
}

metrics::QueueReason BusNetwork::admission_block(
    const Transfer& transfer) const {
  if (bus_pool_full()) return metrics::QueueReason::kBus;
  if (out_in_use_[static_cast<std::size_t>(transfer.src)] >= output_ports_) {
    return metrics::QueueReason::kOutPort;
  }
  if (in_in_use_[static_cast<std::size_t>(transfer.dst)] >= input_ports_) {
    return metrics::QueueReason::kInPort;
  }
  return metrics::QueueReason::kNone;
}

void BusNetwork::record_occupancy(const Transfer& transfer) const {
  if (collector_ == nullptr) return;
  const double now = events_.now();
  // The bus pool level is the number of transfers holding resources, which
  // is meaningful (and tracked) even when the pool is unbounded.
  collector_->bus_tracker().set_level(now,
                                      static_cast<std::int64_t>(active_));
  collector_->out_tracker(transfer.src)
      .set_level(now, out_in_use_[static_cast<std::size_t>(transfer.src)]);
  collector_->in_tracker(transfer.dst)
      .set_level(now, in_in_use_[static_cast<std::size_t>(transfer.dst)]);
}

void BusNetwork::start(const Transfer& transfer, ArrivalFn on_arrival,
                       StartFn on_start) {
  ++out_in_use_[static_cast<std::size_t>(transfer.src)];
  ++in_in_use_[static_cast<std::size_t>(transfer.dst)];
  if (num_buses_ > 0) ++buses_in_use_;
  ++active_;
  record_occupancy(transfer);
  if (on_start) on_start(events_.now());
  // Ports and buses are held for the serialization time (bytes/bandwidth);
  // the wire latency is pipelined and does not occupy resources, so
  // back-to-back messages pay the latency only once on the critical path.
  // Fault-injected link degradation (sampled once, when the wire time
  // begins) scales the serialization time and inflates the latency.
  double serialization = serialization_time(transfer.bytes);
  double arrival_latency = latency_s_;
  if (injector_ != nullptr && injector_->has_link_faults()) {
    const auto effect =
        injector_->link_effect(transfer.src, transfer.dst, events_.now());
    serialization = overhead_s_ + (static_cast<double>(transfer.bytes) /
                                   bytes_per_s_) /
                                      effect.bandwidth_scale;
    arrival_latency += effect.extra_latency_s;
  }
  const double release_at = events_.now() + serialization;
  const double arrival = release_at + arrival_latency;
  events_.schedule(release_at, [this, transfer] { release(transfer); });
  auto arrive = [this, on_arrival = std::move(on_arrival)] {
    on_arrival(events_.now());
  };
  static_assert(EventQueue::Handler::kStoresInline<decltype(arrive)>,
                "an arrival event must not heap-allocate");
  events_.schedule(arrival, std::move(arrive));
}

// The queue keeps one invariant between calls: every queued transfer is
// blocked. Only a release can unblock one, and a release that leaves the
// bus pool with spare capacity frees just the ports of its own transfer, so
// it only has to look at the transfers queued on those two ports. Walking
// them in submission order starts exactly the transfers — in exactly the
// order — a first-fit scan of the whole queue would.
void BusNetwork::release(const Transfer& transfer) {
  const bool pool_was_full = bus_pool_full();
  --out_in_use_[static_cast<std::size_t>(transfer.src)];
  --in_in_use_[static_cast<std::size_t>(transfer.dst)];
  if (num_buses_ > 0) --buses_in_use_;
  --active_;
  record_occupancy(transfer);
  if (queued_ == 0) return;
  if (pool_was_full) {
    // Any queued transfer may have waited only for a bus.
    start_queued_first_fit();
  } else {
    start_queued_on(transfer.src, transfer.dst);
  }
}

void BusNetwork::start_queued_on(trace::Rank src, trace::Rank dst) {
  std::uint32_t from_src = by_src_[static_cast<std::size_t>(src)].head;
  std::uint32_t to_dst = by_dst_[static_cast<std::size_t>(dst)].head;
  while (!bus_pool_full()) {
    // Starting transfers only takes resources, so a port that fills up
    // stays full for the rest of the walk.
    if (out_in_use_[static_cast<std::size_t>(src)] >= output_ports_) {
      from_src = kNil;
    }
    if (in_in_use_[static_cast<std::size_t>(dst)] >= input_ports_) {
      to_dst = kNil;
    }
    if (from_src == kNil && to_dst == kNil) return;
    // Merge the two lists in submission order; a transfer from src to dst
    // heads both at once.
    std::uint32_t slot = from_src;
    if (from_src == kNil ||
        (to_dst != kNil && slots_[to_dst].seq < slots_[from_src].seq)) {
      slot = to_dst;
    }
    if (slot == from_src) from_src = slots_[slot].links[kBySrc].next;
    if (slot == to_dst) to_dst = slots_[slot].links[kByDst].next;
    if (can_start(slots_[slot].transfer)) start_queued(slot);
  }
}

void BusNetwork::start_queued_first_fit() {
  for (std::uint32_t slot = queue_.head; slot != kNil && !bus_pool_full();) {
    const std::uint32_t next = slots_[slot].links[kAll].next;
    if (can_start(slots_[slot].transfer)) start_queued(slot);
    slot = next;
  }
}

BusNetwork::List& BusNetwork::list_of(Chain chain, const Transfer& transfer) {
  switch (chain) {
    case kBySrc:
      return by_src_[static_cast<std::size_t>(transfer.src)];
    case kByDst:
      return by_dst_[static_cast<std::size_t>(transfer.dst)];
    default:
      return queue_;
  }
}

void BusNetwork::link_tail(Chain chain, std::uint32_t slot) {
  List& list = list_of(chain, slots_[slot].transfer);
  slots_[slot].links[chain] = Link{list.tail, kNil};
  if (list.tail != kNil) {
    slots_[list.tail].links[chain].next = slot;
  } else {
    list.head = slot;
  }
  list.tail = slot;
}

void BusNetwork::unlink(Chain chain, std::uint32_t slot) {
  List& list = list_of(chain, slots_[slot].transfer);
  const Link link = slots_[slot].links[chain];
  (link.prev != kNil ? slots_[link.prev].links[chain].next : list.head) =
      link.next;
  (link.next != kNil ? slots_[link.next].links[chain].prev : list.tail) =
      link.prev;
}

void BusNetwork::enqueue(const Transfer& transfer, ArrivalFn on_arrival,
                         StartFn on_start) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Pending& pending = slots_[slot];
  pending.transfer = transfer;
  pending.on_arrival = std::move(on_arrival);
  pending.on_start = std::move(on_start);
  pending.seq = next_seq_++;
  for (const Chain chain : {kAll, kBySrc, kByDst}) link_tail(chain, slot);
  ++queued_;
}

void BusNetwork::start_queued(std::uint32_t slot) {
  for (const Chain chain : {kAll, kBySrc, kByDst}) unlink(chain, slot);
  Pending& pending = slots_[slot];
  const Transfer transfer = pending.transfer;
  ArrivalFn on_arrival = std::move(pending.on_arrival);
  StartFn on_start = std::move(pending.on_start);
  free_slots_.push_back(slot);
  --queued_;
  start(transfer, std::move(on_arrival), std::move(on_start));
}

void BusNetwork::submit(const Transfer& transfer, ArrivalFn on_arrival,
                        StartFn on_start) {
  OSIM_CHECK(transfer.src >= 0 &&
             transfer.src < static_cast<trace::Rank>(out_in_use_.size()));
  OSIM_CHECK(transfer.dst >= 0 &&
             transfer.dst < static_cast<trace::Rank>(in_in_use_.size()));
  // Everything already queued is blocked and a submit frees nothing, so
  // the new transfer is the only one that can start now (first-fit: it may
  // overtake blocked transfers ahead of it).
  if (can_start(transfer)) {
    start(transfer, std::move(on_arrival), std::move(on_start));
  } else {
    enqueue(transfer, std::move(on_arrival), std::move(on_start));
  }
}

// ---------------------------------------------------------------------------
// FairShareNetwork
// ---------------------------------------------------------------------------

namespace {

// Sub-byte residue below which a flow counts as fully transferred.
constexpr double kCompletionEpsBytes = 1e-3;

FairShareCaps caps_from(const Platform& platform) {
  FairShareCaps caps;
  caps.num_nodes = platform.num_nodes;
  caps.link_out_Bps = platform.bandwidth_Bps();
  caps.link_in_Bps = platform.bandwidth_Bps();
  caps.fabric_Bps = platform.fabric_capacity_links > 0.0
                        ? platform.fabric_capacity_links *
                              platform.bandwidth_Bps()
                        : 0.0;
  return caps;
}

}  // namespace

FairShareNetwork::FairShareNetwork(EventQueue& events,
                                   const Platform& platform)
    // The fair-share model has no endpoint-occupancy stage; the per-message
    // overhead is charged as additional fixed delay before the flow starts.
    : Network(events),
      latency_s_(platform.latency_s() + platform.per_message_overhead_s()),
      caps_(caps_from(platform)) {
  OSIM_CHECK(caps_.num_nodes > 0);
  OSIM_CHECK(caps_.link_out_Bps > 0.0);
}

std::size_t FairShareNetwork::in_flight() const {
  return active_.size() + latency_stage_;
}

void FairShareNetwork::submit(const Transfer& transfer, ArrivalFn on_arrival,
                              StartFn on_start) {
  OSIM_CHECK(transfer.src >= 0 && transfer.src < caps_.num_nodes);
  OSIM_CHECK(transfer.dst >= 0 && transfer.dst < caps_.num_nodes);
  if (on_start) on_start(events_.now());
  // Fault-injected extra latency is charged in the fixed-delay stage
  // (sampled at submit); bandwidth degradation is sampled at activation.
  double entry_latency = latency_s_;
  if (injector_ != nullptr && injector_->has_link_faults()) {
    entry_latency += injector_
                         ->link_effect(transfer.src, transfer.dst,
                                       events_.now(), /*count=*/false)
                         .extra_latency_s;
  }
  if (transfer.bytes == 0) {
    events_.schedule_after(entry_latency,
                           [on_arrival = std::move(on_arrival), this] {
                             on_arrival(events_.now());
                           });
    return;
  }
  Flow flow;
  flow.transfer = transfer;
  flow.remaining_bytes = static_cast<double>(transfer.bytes);
  flow.on_arrival = std::move(on_arrival);
  ++latency_stage_;
  events_.schedule_after(entry_latency,
                         [this, flow = std::move(flow)]() mutable {
    --latency_stage_;
    activate(std::move(flow));
  });
}

void FairShareNetwork::activate(Flow flow) {
  update_progress();
  if (injector_ != nullptr && injector_->has_link_faults()) {
    flow.rate_scale = injector_
                          ->link_effect(flow.transfer.src, flow.transfer.dst,
                                        events_.now())
                          .bandwidth_scale;
  }
  active_.push_back(std::move(flow));
  if (collector_ != nullptr) {
    // The fair-share model has no bus pool; track the concurrent flow count
    // on the (uncapped) bus tracker instead.
    collector_->bus_tracker().set_level(
        events_.now(), static_cast<std::int64_t>(active_.size()));
  }
  rebalance();
}

void FairShareNetwork::update_progress() {
  const double elapsed = events_.now() - last_update_;
  if (elapsed > 0.0) {
    for (Flow& flow : active_) {
      flow.remaining_bytes =
          std::max(0.0, flow.remaining_bytes - flow.rate * elapsed);
    }
  }
  last_update_ = events_.now();
}

void FairShareNetwork::rebalance() {
  ++generation_;  // invalidate any previously scheduled completion event
  if (active_.empty()) return;

  std::vector<FlowSpec> specs;
  specs.reserve(active_.size());
  for (const Flow& flow : active_) {
    specs.push_back(FlowSpec{flow.transfer.src, flow.transfer.dst});
  }
  const std::vector<double> rates = maxmin_rates(specs, caps_);

  double next_completion = std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  for (Flow& flow : active_) {
    // rate_scale == 1.0 leaves the fair-share rate bit-identical (IEEE
    // multiplication by 1.0 is exact), so undegraded replays don't change.
    flow.rate = rates[i++] * flow.rate_scale;
    OSIM_CHECK(flow.rate > 0.0);
    next_completion =
        std::min(next_completion, flow.remaining_bytes / flow.rate);
  }
  const std::uint64_t generation = generation_;
  events_.schedule_after(next_completion,
                         [this, generation] { on_completion_event(generation); });
}

void FairShareNetwork::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a rebalance
  update_progress();

  std::vector<ArrivalFn> done;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Flow& flow : active_) {
    min_remaining = std::min(min_remaining, flow.remaining_bytes);
  }
  for (auto it = active_.begin(); it != active_.end();) {
    // The minimum-residue flow always completes here, protecting against
    // floating-point drift that could otherwise stall the event loop.
    if (it->remaining_bytes <= kCompletionEpsBytes ||
        it->remaining_bytes <= min_remaining) {
      done.push_back(std::move(it->on_arrival));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  OSIM_CHECK_MSG(!done.empty(), "completion event with no finished flow");
  if (collector_ != nullptr) {
    collector_->bus_tracker().set_level(
        events_.now(), static_cast<std::int64_t>(active_.size()));
  }
  rebalance();
  for (ArrivalFn& fn : done) fn(events_.now());
}

// ---------------------------------------------------------------------------

std::unique_ptr<Network> make_network(EventQueue& events,
                                      const Platform& platform) {
  switch (platform.model) {
    case NetworkModelKind::kBus:
      return std::make_unique<BusNetwork>(events, platform);
    case NetworkModelKind::kFairShare:
      return std::make_unique<FairShareNetwork>(events, platform);
  }
  OSIM_UNREACHABLE("bad NetworkModelKind");
}

}  // namespace osim::dimemas
