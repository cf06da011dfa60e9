// Tests for the metrics subsystem: wait-time decomposition, occupancy
// tracking, the JSON writer, the collector, and end-to-end attribution
// through dimemas::replay with collect_metrics on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "app_traces.hpp"
#include "dimemas/replay.hpp"
#include "metrics/attribution.hpp"
#include "metrics/collector.hpp"
#include "metrics/json.hpp"
#include "metrics/occupancy.hpp"
#include "trace/trace.hpp"

namespace osim::metrics {
namespace {

using trace::TraceBuilder;

constexpr double kUs = 1e-6;

// ---------------------------------------------------------------------------
// decompose
// ---------------------------------------------------------------------------

TEST(Decompose, NullTimingIsAllDependency) {
  const WaitComponents c = decompose(1.0, 3.0, nullptr);
  EXPECT_DOUBLE_EQ(c.dependency_s, 2.0);
  EXPECT_DOUBLE_EQ(c.total_s(), 2.0);
}

TEST(Decompose, UnsubmittedTimingIsAllDependency) {
  TransferTiming timing;  // submit_s = -1
  const WaitComponents c = decompose(0.0, 5.0, &timing);
  EXPECT_DOUBLE_EQ(c.dependency_s, 5.0);
  EXPECT_DOUBLE_EQ(c.total_s(), 5.0);
}

TEST(Decompose, EmptySpanIsZero) {
  const WaitComponents c = decompose(2.0, 2.0, nullptr);
  EXPECT_DOUBLE_EQ(c.total_s(), 0.0);
}

TEST(Decompose, FullPartition) {
  TransferTiming timing;
  timing.submit_s = 3.0;
  timing.start_s = 5.0;
  timing.fixed_latency_s = 1.0;
  timing.queue_reason = QueueReason::kBus;
  const WaitComponents c = decompose(1.0, 9.0, &timing);
  EXPECT_DOUBLE_EQ(c.dependency_s, 2.0);       // 1 → 3
  EXPECT_DOUBLE_EQ(c.bus_contention_s, 2.0);   // 3 → 5
  EXPECT_DOUBLE_EQ(c.port_contention_s, 0.0);
  EXPECT_DOUBLE_EQ(c.latency_s, 1.0);
  EXPECT_DOUBLE_EQ(c.wire_s, 3.0);             // 5 → 9 minus latency
  EXPECT_DOUBLE_EQ(c.total_s(), 8.0);          // exact
}

TEST(Decompose, PortReasonGoesToPortContention) {
  TransferTiming timing;
  timing.submit_s = 0.0;
  timing.start_s = 4.0;
  timing.queue_reason = QueueReason::kInPort;
  const WaitComponents c = decompose(0.0, 6.0, &timing);
  EXPECT_DOUBLE_EQ(c.port_contention_s, 4.0);
  EXPECT_DOUBLE_EQ(c.bus_contention_s, 0.0);

  timing.queue_reason = QueueReason::kOutPort;
  const WaitComponents c2 = decompose(0.0, 6.0, &timing);
  EXPECT_DOUBLE_EQ(c2.port_contention_s, 4.0);
}

TEST(Decompose, LatencyClampedToInNetworkTime) {
  TransferTiming timing;
  timing.submit_s = 0.0;
  timing.start_s = 0.0;
  timing.fixed_latency_s = 100.0;  // larger than the span
  const WaitComponents c = decompose(0.0, 2.0, &timing);
  EXPECT_DOUBLE_EQ(c.latency_s, 2.0);
  EXPECT_DOUBLE_EQ(c.wire_s, 0.0);
}

TEST(Decompose, TimestampsClampedIntoSpan) {
  // Transfer submitted before the block began (e.g. eager isend long before
  // the wait): no dependency component inside the span.
  TransferTiming timing;
  timing.submit_s = -0.5;
  timing.start_s = 10.0;  // past the end: whole remainder is queueing
  timing.queue_reason = QueueReason::kBus;
  // submit_s < 0 means "unsubmitted", so use a tiny positive time instead.
  timing.submit_s = 0.25;
  const WaitComponents c = decompose(1.0, 3.0, &timing);
  EXPECT_DOUBLE_EQ(c.dependency_s, 0.0);
  EXPECT_DOUBLE_EQ(c.bus_contention_s, 2.0);
  EXPECT_DOUBLE_EQ(c.total_s(), 2.0);
}

// ---------------------------------------------------------------------------
// OccupancyTracker
// ---------------------------------------------------------------------------

TEST(Occupancy, HistogramAndStats) {
  OccupancyTracker tracker;
  tracker.set_capacity(2);
  tracker.set_level(0.0, 1);
  tracker.set_level(2.0, 2);
  tracker.set_level(5.0, 0);
  const OccupancyStats stats = tracker.finish(10.0);
  EXPECT_TRUE(stats.tracked);
  EXPECT_EQ(stats.capacity, 2);
  EXPECT_EQ(stats.peak, 2);
  ASSERT_EQ(stats.histogram.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.histogram[0], 5.0);
  EXPECT_DOUBLE_EQ(stats.histogram[1], 2.0);
  EXPECT_DOUBLE_EQ(stats.histogram[2], 3.0);
  EXPECT_DOUBLE_EQ(stats.busy_s, 5.0);
  EXPECT_DOUBLE_EQ(stats.mean_level, (1 * 2.0 + 2 * 3.0) / 10.0);
  EXPECT_DOUBLE_EQ(stats.utilization, stats.mean_level / 2.0);
  ASSERT_EQ(stats.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.samples[1].time_s, 2.0);
  EXPECT_EQ(stats.samples[1].level, 2);
}

TEST(Occupancy, RepeatedLevelEmitsNoSample) {
  OccupancyTracker tracker;
  tracker.set_level(1.0, 1);
  tracker.set_level(2.0, 1);  // no change
  const OccupancyStats stats = tracker.finish(3.0);
  EXPECT_EQ(stats.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.histogram[1], 2.0);
}

TEST(Occupancy, UntrackedResource) {
  OccupancyTracker tracker;
  const OccupancyStats stats = tracker.finish(5.0);
  EXPECT_FALSE(stats.tracked);
  EXPECT_EQ(stats.peak, 0);
  ASSERT_EQ(stats.histogram.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.histogram[0], 5.0);
  EXPECT_DOUBLE_EQ(stats.mean_level, 0.0);
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(Json, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("osim");
  w.key("count").value(std::int64_t{3});
  w.key("items").begin_array();
  w.value(std::int64_t{1}).value(std::int64_t{2});
  w.end_array();
  w.key("nested").begin_object().key("ok").value(true).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"osim\",\"count\":3,\"items\":[1,2],"
            "\"nested\":{\"ok\":true}}");
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\re\tf\x01"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001");
}

TEST(Json, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

// ---------------------------------------------------------------------------
// ReplayCollector
// ---------------------------------------------------------------------------

TEST(Collector, AttributesPerKindAndPeer) {
  ReplayCollector collector(2, 2);
  TransferTiming timing;
  timing.submit_s = 0.0;
  timing.start_s = 0.0;
  collector.attribute(0, 1, BlockKind::kRecv, 0.0, 2.0, &timing);
  collector.attribute(0, 1, BlockKind::kRecv, 2.0, 3.0, &timing);
  collector.attribute(0, -1, BlockKind::kWait, 3.0, 4.0, nullptr);
  collector.attribute(1, 0, BlockKind::kSend, 0.0, 1.0, &timing);
  const ReplayMetrics m = collector.finish(4.0);

  EXPECT_DOUBLE_EQ(m.rank_waits[0].recv.total_s(), 3.0);
  EXPECT_DOUBLE_EQ(m.rank_waits[0].wait.dependency_s, 1.0);
  EXPECT_DOUBLE_EQ(m.rank_waits[0].total().total_s(), 4.0);
  EXPECT_DOUBLE_EQ(m.rank_waits[1].send.total_s(), 1.0);

  ASSERT_EQ(m.peer_waits.size(), 3u);
  // Sorted by (rank, peer); peer -1 first for rank 0.
  EXPECT_EQ(m.peer_waits[0].rank, 0);
  EXPECT_EQ(m.peer_waits[0].peer, -1);
  EXPECT_EQ(m.peer_waits[0].blocks, 1u);
  EXPECT_EQ(m.peer_waits[1].peer, 1);
  EXPECT_EQ(m.peer_waits[1].blocks, 2u);
  EXPECT_DOUBLE_EQ(m.peer_waits[1].components.total_s(), 3.0);
  EXPECT_EQ(m.peer_waits[2].rank, 1);
}

TEST(Collector, ZeroLengthSpansIgnored) {
  ReplayCollector collector(1, 1);
  collector.attribute(0, -1, BlockKind::kRecv, 1.0, 1.0, nullptr);
  const ReplayMetrics m = collector.finish(1.0);
  EXPECT_DOUBLE_EQ(m.rank_waits[0].total().total_s(), 0.0);
  EXPECT_TRUE(m.peer_waits.empty());
}

TEST(Collector, ProtocolCounts) {
  ReplayCollector collector(1, 1);
  collector.count_message(true, 100);
  collector.count_message(true, 50);
  collector.count_message(false, 100000);
  const ReplayMetrics m = collector.finish(1.0);
  EXPECT_EQ(m.protocol.eager_messages, 2u);
  EXPECT_EQ(m.protocol.eager_bytes, 150u);
  EXPECT_EQ(m.protocol.rendezvous_messages, 1u);
  EXPECT_EQ(m.protocol.rendezvous_bytes, 100000u);
}

// ---------------------------------------------------------------------------
// End-to-end attribution through dimemas::replay
// ---------------------------------------------------------------------------

dimemas::Platform test_platform(std::int32_t nodes) {
  dimemas::Platform p;
  p.num_nodes = nodes;
  p.model = dimemas::NetworkModelKind::kBus;
  p.bandwidth_MBps = 100.0;  // 100 KB → 1 ms serialization
  p.latency_us = 10.0;
  p.num_buses = 0;
  p.eager_threshold_bytes = 16 * 1024;
  return p;
}

dimemas::SimResult replay_with_metrics(trace::Trace trace,
                                       const dimemas::Platform& platform) {
  dimemas::ReplayOptions options;
  options.collect_metrics = true;
  return dimemas::replay(trace, platform, options);
}

void expect_attribution_matches_stats(const dimemas::SimResult& result) {
  ASSERT_NE(result.metrics, nullptr);
  const ReplayMetrics& m = *result.metrics;
  ASSERT_EQ(m.rank_waits.size(), result.rank_stats.size());
  for (std::size_t r = 0; r < result.rank_stats.size(); ++r) {
    const dimemas::RankStats& stats = result.rank_stats[r];
    EXPECT_NEAR(m.rank_waits[r].send.total_s(), stats.send_blocked_s, 1e-9)
        << "rank " << r;
    EXPECT_NEAR(m.rank_waits[r].recv.total_s(), stats.recv_blocked_s, 1e-9)
        << "rank " << r;
    EXPECT_NEAR(m.rank_waits[r].wait.total_s(), stats.wait_blocked_s, 1e-9)
        << "rank " << r;
  }
}

TEST(ReplayMetricsE2E, OffByDefault) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1000);
  b.recv(1, 0, 0, 1000);
  const dimemas::SimResult result =
      dimemas::replay(std::move(b).build(), test_platform(2));
  EXPECT_EQ(result.metrics, nullptr);
}

TEST(ReplayMetricsE2E, ProtocolCountsAndBytesReceived) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1000);          // eager
  b.send(0, 1, 1, 100 * 1000);    // rendezvous
  b.recv(1, 0, 0, 1000);
  b.recv(1, 0, 1, 100 * 1000);
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), test_platform(2));
  EXPECT_EQ(result.metrics->protocol.eager_messages, 1u);
  EXPECT_EQ(result.metrics->protocol.eager_bytes, 1000u);
  EXPECT_EQ(result.metrics->protocol.rendezvous_messages, 1u);
  EXPECT_EQ(result.metrics->protocol.rendezvous_bytes, 100000u);
  EXPECT_EQ(result.rank_stats[0].bytes_sent, 101000u);
  EXPECT_EQ(result.rank_stats[1].bytes_received, 101000u);
}

TEST(ReplayMetricsE2E, RecvWaitIsWireAndLatencyAndDependency) {
  // Receiver posts at t=0; sender computes 100 us first, then rendezvous
  // 100 KB: dependency 100 us, wire 1 ms, latency 10 us.
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100'000).send(0, 1, 0, 100 * 1000);
  b.recv(1, 0, 0, 100 * 1000);
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), test_platform(2));
  expect_attribution_matches_stats(result);
  const WaitComponents& recv = result.metrics->rank_waits[1].recv;
  EXPECT_NEAR(recv.dependency_s, 100.0 * kUs, 1e-12);
  EXPECT_NEAR(recv.wire_s, 1000.0 * kUs, 1e-12);
  EXPECT_NEAR(recv.latency_s, 10.0 * kUs, 1e-12);
  EXPECT_DOUBLE_EQ(recv.bus_contention_s, 0.0);
  EXPECT_DOUBLE_EQ(recv.port_contention_s, 0.0);
  // The peer attribution names the sender.
  ASSERT_FALSE(result.metrics->peer_waits.empty());
  bool found = false;
  for (const PeerWait& pw : result.metrics->peer_waits) {
    if (pw.rank == 1 && pw.peer == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ReplayMetricsE2E, BusContentionAttributed) {
  // Two concurrent 100 KB rendezvous transfers, one global bus: the second
  // transfer queues for one serialization time (1 ms) on the bus.
  TraceBuilder b(4, 1000.0);
  b.send(0, 2, 0, 100 * 1000);
  b.send(1, 3, 0, 100 * 1000);
  b.recv(2, 0, 0, 100 * 1000);
  b.recv(3, 1, 0, 100 * 1000);
  dimemas::Platform p = test_platform(4);
  p.num_buses = 1;
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), p);
  expect_attribution_matches_stats(result);
  double bus_contention = 0.0;
  for (const auto& rw : result.metrics->rank_waits) {
    bus_contention += rw.total().bus_contention_s;
  }
  EXPECT_NEAR(bus_contention, 2 * 1000.0 * kUs, 1e-9);  // sender + receiver
  EXPECT_EQ(result.metrics->bus.peak, 1);
  EXPECT_EQ(result.metrics->bus.capacity, 1);
  EXPECT_GT(result.metrics->bus.utilization, 0.0);
}

TEST(ReplayMetricsE2E, PortContentionAttributed) {
  // Two senders into one receiver with one input port: the second transfer
  // queues on the receiver's input port.
  TraceBuilder b(3, 1000.0);
  b.send(0, 2, 0, 100 * 1000);
  b.send(1, 2, 1, 100 * 1000);
  b.irecv(2, 0, 0, 100 * 1000, 1);
  b.irecv(2, 1, 1, 100 * 1000, 2);
  b.wait(2, {1, 2});
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), test_platform(3));
  expect_attribution_matches_stats(result);
  const WaitComponents wait = result.metrics->rank_waits[2].wait;
  EXPECT_NEAR(wait.port_contention_s, 1000.0 * kUs, 1e-9);
  EXPECT_EQ(result.metrics->node_in[2].peak, 1);
  EXPECT_GT(result.metrics->node_in[2].busy_s, 0.0);
  EXPECT_EQ(result.metrics->node_out[0].peak, 1);
}

TEST(ReplayMetricsE2E, FairShareAttributionSums) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 50'000).send(0, 1, 0, 100 * 1000);
  b.recv(1, 0, 0, 100 * 1000);
  dimemas::Platform p = test_platform(2);
  p.model = dimemas::NetworkModelKind::kFairShare;
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), p);
  expect_attribution_matches_stats(result);
  // The fair-share bus tracker counts concurrent flows.
  EXPECT_TRUE(result.metrics->bus.tracked);
  EXPECT_EQ(result.metrics->bus.peak, 1);
}

TEST(ReplayMetricsE2E, CollectiveTraceAttributionSums) {
  TraceBuilder b(4, 1000.0);
  for (trace::Rank r = 0; r < 4; ++r) {
    b.compute(r, 1000 * static_cast<std::uint64_t>(r + 1));
    b.global(r, trace::CollectiveKind::kAllreduce, 0, 4096, 0);
  }
  const dimemas::SimResult result =
      replay_with_metrics(std::move(b).build(), test_platform(4));
  expect_attribution_matches_stats(result);
}

// ---------------------------------------------------------------------------
// Occupancy samples are kept only for Paraver
// ---------------------------------------------------------------------------

void expect_same_occupancy(const OccupancyStats& got,
                           const OccupancyStats& want) {
  EXPECT_EQ(got.tracked, want.tracked);
  EXPECT_EQ(got.capacity, want.capacity);
  EXPECT_EQ(got.peak, want.peak);
  // Bit-exact comparisons: EXPECT_EQ on doubles.
  EXPECT_EQ(got.mean_level, want.mean_level);
  EXPECT_EQ(got.busy_s, want.busy_s);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.histogram, want.histogram);
}

void expect_same_components(const metrics::WaitComponents& got,
                            const metrics::WaitComponents& want) {
  EXPECT_EQ(got.dependency_s, want.dependency_s);
  EXPECT_EQ(got.fault_s, want.fault_s);
  EXPECT_EQ(got.bus_contention_s, want.bus_contention_s);
  EXPECT_EQ(got.port_contention_s, want.port_contention_s);
  EXPECT_EQ(got.wire_s, want.wire_s);
  EXPECT_EQ(got.latency_s, want.latency_s);
  EXPECT_EQ(got.progress_s, want.progress_s);
}

/// Every (bus, node_in, node_out) occupancy of `m`.
std::vector<const OccupancyStats*> occupancies(const ReplayMetrics& m) {
  std::vector<const OccupancyStats*> all = {&m.bus};
  for (const OccupancyStats& stats : m.node_in) all.push_back(&stats);
  for (const OccupancyStats& stats : m.node_out) all.push_back(&stats);
  return all;
}

// The report path (collect_metrics alone) drops the level-change log that
// only the Paraver counters read; everything else it reports must be the
// same bits a replay that also records comms (osim_replay --prv) produces.
TEST(ReplayMetricsE2E, SamplesOnlyWhenAParaverBundleCanBeWritten) {
  int checked = 0;
  testing_fixtures::for_each_app_context(
      [&checked](const std::string& app, const char* variant, std::int32_t,
                 const pipeline::ReplayContext& context) {
        SCOPED_TRACE(app + " " + variant);
        dimemas::ReplayOptions report = context.options();
        report.collect_metrics = true;
        dimemas::ReplayOptions comms = report;
        comms.record_comms = true;
        dimemas::ReplayOptions timeline = report;
        timeline.record_timeline = true;
        const dimemas::SimResult a =
            dimemas::replay(context.trace(), context.platform(), report);
        const dimemas::SimResult b =
            dimemas::replay(context.trace(), context.platform(), comms);
        const dimemas::SimResult c =
            dimemas::replay(context.trace(), context.platform(), timeline);
        ASSERT_NE(a.metrics, nullptr);
        ASSERT_NE(b.metrics, nullptr);
        ASSERT_NE(c.metrics, nullptr);
        const ReplayMetrics& got = *a.metrics;
        const ReplayMetrics& want = *b.metrics;

        ASSERT_EQ(got.rank_waits.size(), want.rank_waits.size());
        for (std::size_t r = 0; r < got.rank_waits.size(); ++r) {
          expect_same_components(got.rank_waits[r].send,
                                 want.rank_waits[r].send);
          expect_same_components(got.rank_waits[r].recv,
                                 want.rank_waits[r].recv);
          expect_same_components(got.rank_waits[r].wait,
                                 want.rank_waits[r].wait);
        }
        ASSERT_EQ(got.peer_waits.size(), want.peer_waits.size());
        ASSERT_FALSE(got.peer_waits.empty());
        for (std::size_t i = 0; i < got.peer_waits.size(); ++i) {
          EXPECT_EQ(got.peer_waits[i].rank, want.peer_waits[i].rank);
          EXPECT_EQ(got.peer_waits[i].peer, want.peer_waits[i].peer);
          EXPECT_EQ(got.peer_waits[i].blocks, want.peer_waits[i].blocks);
          expect_same_components(got.peer_waits[i].components,
                                 want.peer_waits[i].components);
          if (i > 0) {  // ascending (rank, peer), each pair once
            EXPECT_LT(std::make_pair(got.peer_waits[i - 1].rank,
                                     got.peer_waits[i - 1].peer),
                      std::make_pair(got.peer_waits[i].rank,
                                     got.peer_waits[i].peer));
          }
        }
        EXPECT_EQ(got.protocol.eager_messages, want.protocol.eager_messages);
        EXPECT_EQ(got.protocol.eager_bytes, want.protocol.eager_bytes);
        EXPECT_EQ(got.protocol.rendezvous_messages,
                  want.protocol.rendezvous_messages);
        EXPECT_EQ(got.protocol.rendezvous_bytes,
                  want.protocol.rendezvous_bytes);

        const auto without = occupancies(got);
        const auto with_comms = occupancies(want);
        const auto with_timeline = occupancies(*c.metrics);
        ASSERT_EQ(without.size(), with_comms.size());
        ASSERT_EQ(without.size(), with_timeline.size());
        std::size_t samples = 0;
        for (std::size_t k = 0; k < without.size(); ++k) {
          expect_same_occupancy(*without[k], *with_comms[k]);
          EXPECT_TRUE(without[k]->samples.empty()) << "occupancy " << k;
          ASSERT_EQ(with_comms[k]->samples.size(),
                    with_timeline[k]->samples.size());
          for (std::size_t i = 0; i < with_comms[k]->samples.size(); ++i) {
            EXPECT_EQ(with_comms[k]->samples[i].time_s,
                      with_timeline[k]->samples[i].time_s);
            EXPECT_EQ(with_comms[k]->samples[i].level,
                      with_timeline[k]->samples[i].level);
          }
          samples += with_comms[k]->samples.size();
        }
        EXPECT_FALSE(want.bus.samples.empty());
        EXPECT_GT(samples, want.bus.samples.size());
        ++checked;
      },
      {16});
  EXPECT_EQ(checked, 12);
}

}  // namespace
}  // namespace osim::metrics
