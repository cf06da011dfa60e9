// Unit tests for the DES core: event queue, max-min fair allocation, and
// the two network models driven directly (no replay on top).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <list>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "dimemas/events.hpp"
#include "dimemas/fairshare.hpp"
#include "dimemas/network.hpp"
#include "dimemas/platform.hpp"

namespace osim::dimemas {
namespace {

// --- EventQueue -----------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.events_processed(), 3u);
}

TEST(EventQueue, FifoAmongSimultaneous) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until_empty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, SameTimestampGrowRebuildKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  // 200 simultaneous events: the 129th insert triggers a grow rebuild
  // whose observed time span is empty (hi == lo). Pop order must stay
  // exact (time, seq) FIFO through the degenerate rebuild.
  for (int i = 0; i < 200; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.schedule(2.0, [&order] { order.push_back(200); });
  q.run_until_empty();
  ASSERT_EQ(order.size(), 201u);
  for (int i = 0; i <= 200; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, DegenerateWidthIsResampledNotSticky) {
  EventQueue q;
  // Drive the bucket width to the denormal guard: >128 events packed into
  // a ~1.6e-304 span make the grow rebuild resample the width down to the
  // 1e-308 floor.
  int tiny = 0;
  for (int i = 0; i < 160; ++i) {
    q.schedule(static_cast<double>(i) * 1e-306, [&tiny] { ++tiny; });
  }
  q.run_until_empty();
  EXPECT_EQ(tiny, 160);
  // Refill at a single ordinary timestamp. This rebuild sees hi == lo and
  // must resample back to the construction default rather than keep the
  // near-denormal width (which would clamp every later year_of() and turn
  // each pop into a full bucket walk). Order must stay exact FIFO.
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  for (int i = 200; i < 210; ++i) {
    q.schedule(1.0 + static_cast<double>(i - 199) * 0.001,
               [&order, i] { order.push_back(i); });
  }
  q.run_until_empty();
  ASSERT_EQ(order.size(), 210u);
  for (int i = 0; i < 210; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_after(1.0, [&] { ++fired; });
  });
  q.run_until_empty();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

// --- handler lifetime -------------------------------------------------------
//
// Handlers live in a slab while their keys move through the buckets. A
// Tracked capture counts, per handler id, the copies alive (constructions
// minus destructions, moves included) and how often the handler ran: a
// handler must run at most once and leave no copy alive once it ran or its
// queue was destroyed, and no copy may ever be destroyed twice.

struct Lifetimes {
  std::vector<int> alive;
  std::vector<int> runs;
  bool double_destroy = false;

  int add() {
    alive.push_back(0);
    runs.push_back(0);
    return static_cast<int>(alive.size()) - 1;
  }
  int alive_total() const {
    int total = 0;
    for (const int a : alive) total += a;
    return total;
  }
};

class Tracked {
 public:
  Tracked(Lifetimes* life, int id) : life_(life), id_(id) { ++count(); }
  Tracked(const Tracked& other) : life_(other.life_), id_(other.id_) {
    ++count();
  }
  Tracked(Tracked&& other) noexcept : life_(other.life_), id_(other.id_) {
    ++count();
  }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() {
    if (--count() < 0) life_->double_destroy = true;
  }

  void ran() const { ++life_->runs[static_cast<std::size_t>(id_)]; }
  int id() const { return id_; }

 private:
  int& count() const { return life_->alive[static_cast<std::size_t>(id_)]; }
  Lifetimes* life_;
  int id_;
};

/// Schedules a handler holding a Tracked capture; `big` pads the closure
/// past the inline buffer, so the handler lives in a heap block.
template <typename Body>
void schedule_tracked(EventQueue& q, Lifetimes& life, double time, bool big,
                      Body body) {
  Tracked tracked(&life, life.add());
  if (big) {
    std::array<double, 8> pad{};
    pad[0] = time;
    q.schedule(time, [tracked, pad, body] {
      tracked.ran();
      body(pad[0]);
    });
  } else {
    q.schedule(time, [tracked, body] {
      tracked.ran();
      body(0.0);
    });
  }
}

TEST(EventQueueLifetime, RunHandlersAreDestroyedOnce) {
  Lifetimes life;
  {
    EventQueue q;
    for (int i = 0; i < 10; ++i) {
      schedule_tracked(q, life, 1.0 + i, i % 2 == 0, [](double) {});
    }
    EXPECT_EQ(life.alive_total(), 10);
    q.run_until_empty();
    EXPECT_EQ(life.alive_total(), 0);  // before the queue goes away
  }
  EXPECT_EQ(life.runs, std::vector<int>(10, 1));
  EXPECT_FALSE(life.double_destroy);
}

TEST(EventQueueLifetime, RebuildsInBothDirectionsKeepEveryHandler) {
  Lifetimes life;
  EventQueue q;
  // 1,000 pending events grow the calendar through several rebuilds...
  for (int i = 0; i < 1000; ++i) {
    schedule_tracked(q, life, 1.0 + (i % 37) * 0.25, i % 5 == 0,
                     [](double) {});
  }
  EXPECT_EQ(life.alive_total(), 1000);
  // ...and draining all but a few shrinks it again.
  for (int i = 0; i < 990; ++i) ASSERT_TRUE(q.run_one());
  EXPECT_EQ(life.alive_total(), 10);
  int ran = 0;
  for (std::size_t id = 0; id < life.runs.size(); ++id) {
    EXPECT_EQ(life.alive[id], 1 - life.runs[id]) << "handler " << id;
    ran += life.runs[id];
  }
  EXPECT_EQ(ran, 990);
  q.run_until_empty();
  EXPECT_EQ(life.alive_total(), 0);
  EXPECT_EQ(life.runs, std::vector<int>(1000, 1));
  EXPECT_FALSE(life.double_destroy);
}

TEST(EventQueueLifetime, SlotsAreReusedByHandlersScheduledFromHandlers) {
  Lifetimes life;
  EventQueue q;
  // Each handler schedules its successors from inside its own body, into
  // the slot it just vacated and into fresh slots that grow (relocate) the
  // slab while it runs; its own capture must stay intact throughout.
  std::function<void(int, double)> spawn = [&](int depth, double at) {
    const bool big = depth % 2 == 1;
    schedule_tracked(q, life, at, big, [&, depth, big](double padded) {
      if (big) {
        EXPECT_EQ(padded, q.now());
      }
      if (depth == 0) return;
      for (int child = 0; child < 40; ++child) {
        spawn(depth - 1, q.now() + 0.5 * (child % 3));
      }
    });
  };
  spawn(2, 0.0);
  q.run_until_empty();
  EXPECT_EQ(life.runs.size(), 1u + 40u + 1600u);
  EXPECT_EQ(life.runs, std::vector<int>(life.runs.size(), 1));
  EXPECT_EQ(life.alive_total(), 0);
  EXPECT_FALSE(life.double_destroy);
}

TEST(EventQueueLifetime, DestroyingAQueueDestroysPendingHandlers) {
  Lifetimes life;
  {
    EventQueue q;
    for (int i = 0; i < 300; ++i) {
      schedule_tracked(q, life, static_cast<double>(i % 7), i % 3 == 0,
                       [](double) {});
    }
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.run_one());
    EXPECT_EQ(life.alive_total(), 200);
  }
  int ran = 0;
  for (std::size_t id = 0; id < life.runs.size(); ++id) {
    EXPECT_EQ(life.alive[id], 0) << "handler " << id;
    EXPECT_LE(life.runs[id], 1) << "handler " << id;
    ran += life.runs[id];
  }
  EXPECT_EQ(ran, 100);
  EXPECT_FALSE(life.double_destroy);
}

TEST(EventQueueDeathTest, PastSchedulingAborts) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_one();
  EXPECT_DEATH(q.schedule(1.0, [] {}), "scheduled in the past");
}

// The calendar queue against a binary heap on (time, seq): the pop
// sequence of a random self-extending event program must be identical.
// Each event's children come from an RNG seeded by (seed, event id), and
// ids are handed out in scheduling order, so any divergence in pop order
// changes every later id and shows up in the recorded trace.

class ReferenceHeapQueue {
 public:
  void schedule(double time, std::function<void()> fn) {
    heap_.push(Entry{time, next_seq_++, std::move(fn)});
  }
  double now() const { return now_; }
  void run_until_empty() {
    while (!heap_.empty()) {
      Entry entry = heap_.top();
      heap_.pop();
      now_ = entry.time;
      entry.fn();
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

template <typename Queue>
class EventProgram {
 public:
  EventProgram(Queue& queue, std::uint64_t seed)
      : queue_(queue), seed_(seed) {}

  /// Runs the program; returns (id, time) for every event in pop order.
  std::vector<std::pair<int, double>> run() {
    std::mt19937_64 rng(seed_);
    // A burst of thousands of events at one timestamp (every rank ending
    // an equal compute burst), then a scatter of independent ones.
    for (int i = 0; i < 3000; ++i) add(1.0);
    std::uniform_real_distribution<double> when(0.0, 2.0);
    for (int i = 0; i < 500; ++i) add(when(rng));
    queue_.run_until_empty();
    return popped_;
  }

 private:
  void add(double time) {
    const int id = next_id_++;
    queue_.schedule(time, [this, id] { fire(id); });
  }

  void fire(int id) {
    popped_.emplace_back(id, queue_.now());
    if (next_id_ >= kMaxEvents) return;
    std::mt19937_64 rng(seed_ * 1'000'003u + static_cast<std::uint64_t>(id));
    switch (rng() % 8) {
      case 0:  // another burst of simultaneous events, one quantum ahead
        for (int i = 0; i < 1500; ++i) add(queue_.now() + 1e-3);
        break;
      case 1:  // same-instant follow-up
        add(queue_.now());
        break;
      case 2:  // a far-future straggler (forces a jump across the ring)
        add(queue_.now() + 50.0 + static_cast<double>(rng() % 100));
        break;
      case 3:
      case 4: {  // short random horizon
        std::uniform_real_distribution<double> delay(0.0, 1e-3);
        add(queue_.now() + delay(rng));
        break;
      }
      default:  // no children: the queue drains and shrinks
        break;
    }
  }

  static constexpr int kMaxEvents = 60'000;
  Queue& queue_;
  std::uint64_t seed_;
  int next_id_ = 0;
  std::vector<std::pair<int, double>> popped_;
};

TEST(EventQueueDifferential, MatchesBinaryHeapOnBurstyPrograms) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EventQueue calendar;
    ReferenceHeapQueue heap;
    const auto got = EventProgram<EventQueue>(calendar, seed).run();
    const auto want = EventProgram<ReferenceHeapQueue>(heap, seed).run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_GT(got.size(), 10'000u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first)
          << "seed " << seed << " pop " << i;
      ASSERT_EQ(got[i].second, want[i].second)
          << "seed " << seed << " pop " << i;
    }
  }
}

/// A program whose handlers carry state and schedule their children from
/// inside their own bodies, several per event and often at the very
/// instant they run, so a running handler's slot is reused and the slab
/// grows while handlers execute. Every other handler's closure is too big
/// for the inline buffer. Each handler checks its payload when it fires.
template <typename Queue>
class NestingProgram {
 public:
  NestingProgram(Queue& queue, std::uint64_t seed)
      : queue_(queue), seed_(seed) {}

  std::vector<std::pair<int, double>> run() {
    for (int i = 0; i < 64; ++i) add(0.0);
    queue_.run_until_empty();
    return popped_;
  }

  bool payloads_intact() const { return payloads_intact_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    return x ^ (x >> 29);
  }

  void add(double time) {
    const int id = next_id_++;
    if (id % 2 == 0) {
      queue_.schedule(time, [this, id] { fire(id); });
      return;
    }
    std::array<std::uint64_t, 8> payload{};
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = mix(static_cast<std::uint64_t>(id) * 8 + k);
    }
    queue_.schedule(time, [this, id, payload] {
      for (std::size_t k = 0; k < payload.size(); ++k) {
        if (payload[k] != mix(static_cast<std::uint64_t>(id) * 8 + k)) {
          payloads_intact_ = false;
        }
      }
      fire(id);
    });
  }

  void fire(int id) {
    popped_.emplace_back(id, queue_.now());
    if (next_id_ >= kMaxEvents) return;
    std::mt19937_64 rng(seed_ * 7'919u + static_cast<std::uint64_t>(id));
    const int children = static_cast<int>(rng() % 4);
    for (int c = 0; c < children; ++c) {
      switch (rng() % 3) {
        case 0:  // same instant: runs after every event already due now
          add(queue_.now());
          break;
        case 1:
          add(queue_.now() + 1e-6 * static_cast<double>(1 + rng() % 50));
          break;
        default:
          add(queue_.now() + 1e-3 * static_cast<double>(rng() % 20));
          break;
      }
    }
  }

  static constexpr int kMaxEvents = 40'000;
  Queue& queue_;
  std::uint64_t seed_;
  int next_id_ = 0;
  bool payloads_intact_ = true;
  std::vector<std::pair<int, double>> popped_;
};

TEST(EventQueueDifferential, MatchesBinaryHeapWhenHandlersNest) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EventQueue calendar;
    ReferenceHeapQueue heap;
    NestingProgram<EventQueue> got_program(calendar, seed);
    NestingProgram<ReferenceHeapQueue> want_program(heap, seed);
    const auto got = got_program.run();
    const auto want = want_program.run();
    EXPECT_TRUE(got_program.payloads_intact()) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_GT(got.size(), 10'000u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first)
          << "seed " << seed << " pop " << i;
      ASSERT_EQ(got[i].second, want[i].second)
          << "seed " << seed << " pop " << i;
    }
  }
}

// --- max-min fair allocation ----------------------------------------------

FairShareCaps caps(std::int32_t nodes, double link, double fabric = 0.0) {
  return FairShareCaps{nodes, link, link, fabric};
}

TEST(MaxMin, SingleFlowGetsLinkRate) {
  const auto rates = maxmin_rates({{0, 1}}, caps(2, 100.0));
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(MaxMin, TwoFlowsShareOutLink) {
  const auto rates = maxmin_rates({{0, 1}, {0, 2}}, caps(3, 100.0));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMin, IndependentFlowsUnaffected) {
  const auto rates = maxmin_rates({{0, 1}, {2, 3}}, caps(4, 100.0));
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(MaxMin, ClassicThreeFlowExample) {
  // Flows: A 0->1, B 0->2, C 3->2. Out-link 0 shared by A,B; in-link 2
  // shared by B,C. Max-min: A=50, B=50, C=50 (all bottlenecked at 50).
  const auto rates = maxmin_rates({{0, 1}, {0, 2}, {3, 2}}, caps(4, 100.0));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(MaxMin, UnfrozenFlowGrabsSlack) {
  // Flows: A 0->1, B 0->1, C 2->3. A,B bottleneck at out-link 0 (50 each);
  // C gets the full independent link.
  const auto rates = maxmin_rates({{0, 1}, {0, 1}, {2, 3}}, caps(4, 100.0));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 100.0);
}

TEST(MaxMin, FabricCapsAggregate) {
  // Two independent flows, but the fabric only carries 120 total.
  const auto rates = maxmin_rates({{0, 1}, {2, 3}}, caps(4, 100.0, 120.0));
  EXPECT_DOUBLE_EQ(rates[0], 60.0);
  EXPECT_DOUBLE_EQ(rates[1], 60.0);
}

TEST(MaxMin, FabricAsymmetricFill) {
  // Flow A shares its out-link with B; fabric 150 total.
  // Round 1: fair share = 50 (link 0). A,B freeze at 50.
  // C continues until fabric (150 - 100 = 50 left) ... C gets 50.
  const auto rates =
      maxmin_rates({{0, 1}, {0, 2}, {3, 4}}, caps(5, 100.0, 150.0));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(MaxMin, EmptyFlowsOk) {
  EXPECT_TRUE(maxmin_rates({}, caps(2, 100.0)).empty());
}

TEST(MaxMin, ManyFlowsConservation) {
  // Property: aggregate rate through each resource never exceeds capacity,
  // and every flow has a positive rate.
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 16; ++i) {
    flows.push_back(FlowSpec{i % 4, (i * 3 + 1) % 4});
  }
  // Avoid self-flows for realism.
  for (auto& f : flows) {
    if (f.src_node == f.dst_node) f.dst_node = (f.dst_node + 1) % 4;
  }
  const auto rates = maxmin_rates(flows, caps(4, 100.0, 250.0));
  double total = 0.0;
  std::vector<double> out(4, 0.0), in(4, 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GT(rates[i], 0.0);
    out[static_cast<std::size_t>(flows[i].src_node)] += rates[i];
    in[static_cast<std::size_t>(flows[i].dst_node)] += rates[i];
    total += rates[i];
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_LE(out[static_cast<std::size_t>(n)], 100.0 + 1e-9);
    EXPECT_LE(in[static_cast<std::size_t>(n)], 100.0 + 1e-9);
  }
  EXPECT_LE(total, 250.0 + 1e-9);
}

// --- BusNetwork -----------------------------------------------------------

Platform bus_platform(std::int32_t nodes, std::int32_t buses) {
  Platform p;
  p.num_nodes = nodes;
  p.model = NetworkModelKind::kBus;
  p.bandwidth_MBps = 100.0;  // 1e8 B/s → 10 ns per byte
  p.latency_us = 10.0;
  p.num_buses = buses;
  return p;
}

TEST(BusNetwork, SingleTransferTiming) {
  EventQueue q;
  BusNetwork net(q, bus_platform(2, 0));
  double arrival = -1.0;
  double start = -1.0;
  net.submit(Transfer{0, 1, 1'000'000}, [&](double t) { arrival = t; },
             [&](double t) { start = t; });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(start, 0.0);
  // 1 MB at 100 MB/s = 10 ms, plus 10 us latency.
  EXPECT_DOUBLE_EQ(arrival, 0.01 + 10e-6);
}

TEST(BusNetwork, ZeroByteTakesLatencyOnly) {
  EventQueue q;
  BusNetwork net(q, bus_platform(2, 0));
  double arrival = -1.0;
  net.submit(Transfer{0, 1, 0}, [&](double t) { arrival = t; });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(arrival, 10e-6);
}

TEST(BusNetwork, OutputPortSerializes) {
  EventQueue q;
  BusNetwork net(q, bus_platform(3, 0));
  std::vector<double> arrivals;
  // Two messages from node 0: they serialize on the single output port,
  // but latency pipelines (paid once per message after its serialization).
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{0, 2, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01 + 10e-6);
  EXPECT_DOUBLE_EQ(arrivals[1], 0.02 + 10e-6);
}

TEST(BusNetwork, InputPortSerializes) {
  EventQueue q;
  BusNetwork net(q, bus_platform(3, 0));
  std::vector<double> arrivals;
  net.submit(Transfer{0, 2, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{1, 2, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01 + 10e-6);
  EXPECT_DOUBLE_EQ(arrivals[1], 0.02 + 10e-6);
}

TEST(BusNetwork, DisjointPairsRunConcurrently) {
  EventQueue q;
  BusNetwork net(q, bus_platform(4, 0));
  std::vector<double> arrivals;
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{2, 3, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01 + 10e-6);
  EXPECT_DOUBLE_EQ(arrivals[1], 0.01 + 10e-6);
}

TEST(BusNetwork, BusLimitSerializesDisjointPairs) {
  EventQueue q;
  BusNetwork net(q, bus_platform(4, 1));  // one global bus
  std::vector<double> arrivals;
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{2, 3, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01 + 10e-6);
  EXPECT_DOUBLE_EQ(arrivals[1], 0.02 + 10e-6);
}

TEST(BusNetwork, FirstFitSkipsBlockedHead) {
  EventQueue q;
  Platform p = bus_platform(4, 0);
  BusNetwork net(q, p);
  std::vector<int> order;
  // Fill node 1's input port, then queue another message to node 1 and one
  // to node 3; the node-3 message must not wait behind the blocked head.
  net.submit(Transfer{0, 1, 1'000'000}, [&](double) { order.push_back(0); });
  net.submit(Transfer{2, 1, 1'000'000}, [&](double) { order.push_back(1); });
  net.submit(Transfer{2, 3, 1'000'000}, [&](double) { order.push_back(2); });
  q.run_until_empty();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);  // overtook the blocked transfer to node 1
  EXPECT_EQ(order[2], 1);
}

TEST(BusNetwork, MultiplePortsAllowConcurrency) {
  EventQueue q;
  Platform p = bus_platform(3, 0);
  p.output_ports = 2;
  BusNetwork net(q, p);
  std::vector<double> arrivals;
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{0, 2, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(arrivals[0], 0.01 + 10e-6);
  EXPECT_DOUBLE_EQ(arrivals[1], 0.01 + 10e-6);
}

// The port-indexed BusNetwork queue against the first-fit scan it
// replaced. ReferenceListBusNetwork is that model verbatim — a std::list of
// queued transfers rescanned front to back on every submit and release —
// minus the collector and fault hooks, which these streams never wire.
class ReferenceListBusNetwork final : public Network {
 public:
  ReferenceListBusNetwork(EventQueue& events, const Platform& platform)
      : Network(events),
        latency_s_(platform.latency_s()),
        overhead_s_(platform.per_message_overhead_s()),
        bytes_per_s_(platform.bandwidth_Bps()),
        num_buses_(platform.num_buses),
        out_in_use_(static_cast<std::size_t>(platform.num_nodes), 0),
        in_in_use_(static_cast<std::size_t>(platform.num_nodes), 0),
        output_ports_(platform.output_ports),
        input_ports_(platform.input_ports) {}

  void submit(const Transfer& transfer, ArrivalFn on_arrival,
              StartFn on_start) override {
    Pending pending{transfer, std::move(on_arrival), std::move(on_start)};
    if (pending_.empty() && can_start(transfer)) {
      start(std::move(pending));
    } else {
      pending_.push_back(std::move(pending));
      try_start_pending();  // first-fit: later transfers may still fit
    }
  }
  std::size_t in_flight() const override { return active_ + pending_.size(); }
  double fixed_latency_s() const override { return latency_s_; }

 private:
  struct Pending {
    Transfer transfer;
    ArrivalFn on_arrival;
    StartFn on_start;
  };

  bool can_start(const Transfer& transfer) const {
    if (num_buses_ > 0 && buses_in_use_ >= num_buses_) return false;
    if (out_in_use_[static_cast<std::size_t>(transfer.src)] >= output_ports_)
      return false;
    if (in_in_use_[static_cast<std::size_t>(transfer.dst)] >= input_ports_)
      return false;
    return true;
  }

  void start(Pending pending) {
    const Transfer transfer = pending.transfer;
    ++out_in_use_[static_cast<std::size_t>(transfer.src)];
    ++in_in_use_[static_cast<std::size_t>(transfer.dst)];
    if (num_buses_ > 0) ++buses_in_use_;
    ++active_;
    if (pending.on_start) pending.on_start(events_.now());
    const double serialization =
        overhead_s_ + static_cast<double>(transfer.bytes) / bytes_per_s_;
    const double release = events_.now() + serialization;
    const double arrival = release + latency_s_;
    events_.schedule(release, [this, transfer] {
      --out_in_use_[static_cast<std::size_t>(transfer.src)];
      --in_in_use_[static_cast<std::size_t>(transfer.dst)];
      if (num_buses_ > 0) --buses_in_use_;
      --active_;
      try_start_pending();
    });
    events_.schedule(arrival,
                     [this, on_arrival = std::move(pending.on_arrival)] {
                       on_arrival(events_.now());
                     });
  }

  void try_start_pending() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (can_start(it->transfer)) {
        Pending p = std::move(*it);
        it = pending_.erase(it);
        start(std::move(p));
      } else {
        ++it;
      }
    }
  }

  const double latency_s_;
  const double overhead_s_;
  const double bytes_per_s_;
  const std::int32_t num_buses_;
  std::vector<std::int32_t> out_in_use_;
  std::vector<std::int32_t> in_in_use_;
  const std::int32_t output_ports_;
  const std::int32_t input_ports_;
  std::int32_t buses_in_use_ = 0;
  std::size_t active_ = 0;
  std::list<Pending> pending_;
};

struct TransferLog {
  std::vector<int> start_order;  // transfer ids in on_start order
  std::vector<double> start;     // by id
  std::vector<double> arrival;   // by id
};

/// Replays one seeded transfer stream on `net`: waves of submissions at
/// random (often equal) instants, with two hot fan-in destinations, zero-
/// byte messages, and arrivals that trigger follow-up sends, so submits
/// interleave with releases the way a replay's do.
TransferLog drive_stream(EventQueue& q, Network& net, std::int32_t nodes,
                         std::uint64_t seed) {
  constexpr int kTransfers = 600;
  std::mt19937_64 rng(seed);
  struct Spec {
    Transfer transfer;
    double at = 0.0;
    bool follow_up = false;  // submitted by the previous transfer's arrival
  };
  std::vector<Spec> specs(kTransfers);
  const auto node = [&] {
    return static_cast<trace::Rank>(rng() % static_cast<std::uint64_t>(nodes));
  };
  const trace::Rank hot[2] = {node(), node()};
  for (Spec& spec : specs) {
    spec.transfer.src = node();
    spec.transfer.dst = rng() % 3 == 0 ? hot[rng() % 2] : node();
    const std::uint64_t size_class = rng() % 5;
    spec.transfer.bytes = size_class == 0   ? 0
                          : size_class == 1 ? 1 + rng() % 64
                                            : 1'000 + rng() % 200'000;
    spec.at = static_cast<double>(rng() % 40) * 1e-4;  // many ties
    spec.follow_up = rng() % 4 == 0;
  }
  specs.front().follow_up = false;  // every chain needs a timed head
  TransferLog log;
  log.start.assign(kTransfers, -1.0);
  log.arrival.assign(kTransfers, -1.0);
  std::function<void(int)> submit = [&](int id) {
    net.submit(
        specs[static_cast<std::size_t>(id)].transfer,
        [&, id](double t) {
          log.arrival[static_cast<std::size_t>(id)] = t;
          if (id + 1 < kTransfers &&
              specs[static_cast<std::size_t>(id) + 1].follow_up) {
            submit(id + 1);
          }
        },
        [&, id](double t) {
          log.start_order.push_back(id);
          log.start[static_cast<std::size_t>(id)] = t;
        });
  };
  for (int id = 0; id < kTransfers; ++id) {
    if (!specs[static_cast<std::size_t>(id)].follow_up) {
      q.schedule(specs[static_cast<std::size_t>(id)].at,
                 [&submit, id] { submit(id); });
    }
  }
  q.run_until_empty();
  EXPECT_EQ(net.in_flight(), 0u);
  return log;
}

TEST(BusNetworkDifferential, MatchesListFirstFitOnRandomStreams) {
  std::mt19937_64 rng(2024);
  int cases = 0;
  for (const std::int32_t buses : {0, 1, 3}) {
    for (int trial = 0; trial < 40; ++trial) {
      Platform p = bus_platform(2 + static_cast<std::int32_t>(rng() % 63),
                                buses);
      p.output_ports = 1 + static_cast<std::int32_t>(rng() % 2);
      p.input_ports = 1 + static_cast<std::int32_t>(rng() % 2);
      p.per_message_overhead_us = trial % 3 == 0 ? 0.5 : 0.0;
      const std::uint64_t seed = rng();
      EventQueue q_indexed;
      BusNetwork indexed(q_indexed, p);
      const TransferLog got =
          drive_stream(q_indexed, indexed, p.num_nodes, seed);
      EventQueue q_list;
      ReferenceListBusNetwork list(q_list, p);
      const TransferLog want = drive_stream(q_list, list, p.num_nodes, seed);
      SCOPED_TRACE(testing::Message()
                   << "nodes=" << p.num_nodes << " buses=" << buses
                   << " ports=" << p.output_ports << "/" << p.input_ports
                   << " seed=" << seed);
      ASSERT_EQ(got.start_order, want.start_order);
      for (std::size_t i = 0; i < got.start.size(); ++i) {
        // Bit-exact: EXPECT_EQ on doubles, not EXPECT_DOUBLE_EQ.
        ASSERT_EQ(got.start[i], want.start[i]) << "transfer " << i;
        ASSERT_EQ(got.arrival[i], want.arrival[i]) << "transfer " << i;
        ASSERT_GE(got.arrival[i], 0.0) << "transfer " << i;
      }
      EXPECT_EQ(q_indexed.events_processed(), q_list.events_processed());
      ++cases;
    }
  }
  EXPECT_EQ(cases, 120);
}

// --- Platform::from_flags --------------------------------------------------

TEST(Platform, FromFlagsBuildsTheFlagPlatform) {
  const Platform p = Platform::from_flags(16, 250.0, 4.0, 6, 2, 1024);
  EXPECT_EQ(p.num_nodes, 16);
  EXPECT_EQ(p.model, NetworkModelKind::kBus);
  EXPECT_EQ(p.bandwidth_MBps, 250.0);
  EXPECT_EQ(p.latency_us, 4.0);
  EXPECT_EQ(p.num_buses, 6);
  EXPECT_EQ(p.input_ports, 2);
  EXPECT_EQ(p.output_ports, 2);
  EXPECT_EQ(p.eager_threshold_bytes, 1024u);
}

TEST(Platform, FromFlagsRejectsOutOfRangeValues) {
  const auto build = [](double bw, double lat, std::int64_t buses,
                        std::int64_t ports, std::int64_t eager) {
    return Platform::from_flags(4, bw, lat, buses, ports, eager);
  };
  EXPECT_THROW(build(0.0, 4.0, 0, 1, 0), UsageError);
  EXPECT_THROW(build(-1.0, 4.0, 0, 1, 0), UsageError);
  EXPECT_THROW(build(std::nan(""), 4.0, 0, 1, 0), UsageError);
  EXPECT_THROW(build(HUGE_VAL, 4.0, 0, 1, 0), UsageError);
  EXPECT_THROW(build(250.0, -0.5, 0, 1, 0), UsageError);
  EXPECT_THROW(build(250.0, 4.0, -1, 1, 0), UsageError);
  EXPECT_THROW(build(250.0, 4.0, std::int64_t{1} << 32, 1, 0), UsageError);
  EXPECT_THROW(build(250.0, 4.0, 0, 0, 0), UsageError);
  EXPECT_THROW(build(250.0, 4.0, 0, std::int64_t{1} << 31, 0), UsageError);
  EXPECT_THROW(build(250.0, 4.0, 0, 1, -1), UsageError);
  // The boundary values themselves are accepted.
  EXPECT_NO_THROW(build(1e-9, 0.0, 0, 1, 0));
}

// --- FairShareNetwork -------------------------------------------------------

Platform fs_platform(std::int32_t nodes, double fabric_links = 0.0) {
  Platform p;
  p.num_nodes = nodes;
  p.model = NetworkModelKind::kFairShare;
  p.bandwidth_MBps = 100.0;
  p.latency_us = 10.0;
  p.fabric_capacity_links = fabric_links;
  return p;
}

TEST(FairShareNetwork, SingleTransferTiming) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(2));
  double arrival = -1.0;
  net.submit(Transfer{0, 1, 1'000'000}, [&](double t) { arrival = t; });
  q.run_until_empty();
  EXPECT_NEAR(arrival, 0.01 + 10e-6, 1e-12);
}

TEST(FairShareNetwork, TwoFlowsShareBandwidth) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(3));
  std::vector<double> arrivals;
  // Same source: each gets 50 MB/s; both finish at ~20 ms (plus latency).
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{0, 2, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.02 + 10e-6, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.02 + 10e-6, 1e-9);
}

TEST(FairShareNetwork, RateRebalancesAfterCompletion) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(3));
  double big_arrival = -1.0;
  // A short and a long flow share the source link. After the short one
  // finishes, the long one speeds up:
  //   both at 50 MB/s until t = 10us + 20ms (short done; long has 0.5 MB
  //   left), then the long one runs at 100 MB/s for another 5 ms.
  net.submit(Transfer{0, 1, 1'000'000}, [&](double) {});
  net.submit(Transfer{0, 2, 1'500'000}, [&](double t) { big_arrival = t; });
  q.run_until_empty();
  EXPECT_NEAR(big_arrival, 10e-6 + 0.020 + 0.005, 1e-7);
}

TEST(FairShareNetwork, ZeroByteTakesLatencyOnly) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(2));
  double arrival = -1.0;
  net.submit(Transfer{0, 1, 0}, [&](double t) { arrival = t; });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(arrival, 10e-6);
}

TEST(FairShareNetwork, FabricLimitsAggregate) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(4, 1.0));  // fabric = 1 link = 100 MB/s
  std::vector<double> arrivals;
  net.submit(Transfer{0, 1, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  net.submit(Transfer{2, 3, 1'000'000},
             [&](double t) { arrivals.push_back(t); });
  q.run_until_empty();
  // Disjoint pairs, but the shared fabric halves both rates: 20 ms each.
  EXPECT_NEAR(arrivals[0], 0.02 + 10e-6, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.02 + 10e-6, 1e-9);
}

TEST(FairShareNetwork, ManyFlowsAllComplete) {
  EventQueue q;
  FairShareNetwork net(q, fs_platform(8, 2.0));
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    net.submit(Transfer{i % 8, (i + 3) % 8, 100'000 + 1000u * i},
               [&](double) { ++completed; });
  }
  q.run_until_empty();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(NetworkFactory, DispatchesOnModel) {
  EventQueue q;
  EXPECT_NE(dynamic_cast<BusNetwork*>(
                make_network(q, bus_platform(2, 0)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<FairShareNetwork*>(
                make_network(q, fs_platform(2)).get()),
            nullptr);
}

}  // namespace
}  // namespace osim::dimemas
