// Tests for the trace-replay simulator: analytic timings, protocol
// semantics, blocking behaviour, deadlock diagnostics, timeline/comm
// recording, and monotonicity properties over platform parameters.
#include <gtest/gtest.h>

#include <variant>

#include "app_traces.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/replay.hpp"
#include "trace/trace.hpp"

namespace osim::dimemas {
namespace {

using trace::CollectiveKind;
using trace::Rank;
using trace::Trace;
using trace::TraceBuilder;

// Platform: 1000 MIPS traces → 1 instruction = 1 ns; 100 MB/s; 10 us
// latency; unlimited buses.
Platform test_platform(std::int32_t nodes) {
  Platform p;
  p.num_nodes = nodes;
  p.model = NetworkModelKind::kBus;
  p.bandwidth_MBps = 100.0;
  p.latency_us = 10.0;
  p.num_buses = 0;
  p.eager_threshold_bytes = 16 * 1024;
  return p;
}

constexpr double kUs = 1e-6;

TEST(Replay, PureComputeTime) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 5000);  // 5000 instr at 1000 MIPS = 5 us
  const SimResult result = replay(std::move(b).build(), test_platform(1));
  EXPECT_NEAR(result.makespan, 5.0 * kUs, 1e-12);
  EXPECT_NEAR(result.rank_stats[0].compute_s, 5.0 * kUs, 1e-12);
}

TEST(Replay, RelativeCpuSpeedScalesBursts) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 5000);
  Platform p = test_platform(1);
  p.relative_cpu_speed = 2.0;
  const SimResult result = replay(std::move(b).build(), p);
  EXPECT_NEAR(result.makespan, 2.5 * kUs, 1e-12);
}

TEST(Replay, PerNodeCpuSpeeds) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 100'000);
  b.compute(1, 100'000);
  Platform p = test_platform(2);
  p.per_node_cpu_speed = {1.0, 0.5};  // node 1 at half speed
  const SimResult result = replay(std::move(b).build(), p);
  EXPECT_NEAR(result.rank_stats[0].finish_time, 100.0 * kUs, 1e-12);
  EXPECT_NEAR(result.rank_stats[1].finish_time, 200.0 * kUs, 1e-12);
  EXPECT_NEAR(result.makespan, 200.0 * kUs, 1e-12);
}

TEST(Replay, PerNodeCpuSpeedSizeChecked) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 1);
  Platform p = test_platform(2);
  p.per_node_cpu_speed = {1.0};  // wrong length
  EXPECT_DEATH(replay(std::move(b).build(), p), "num_nodes entries");
}

TEST(Replay, EagerMessageTiming) {
  // 1000-byte eager message: receiver posted late, message already there.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1000);
  b.compute(1, 100'000).recv(1, 0, 0, 1000);  // 100 us of compute first
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  // Arrival at 10us + 10us = 20us < 100us; recv completes instantly.
  EXPECT_NEAR(result.makespan, 100.0 * kUs, 1e-12);
  EXPECT_NEAR(result.rank_stats[1].recv_blocked_s, 0.0, 1e-12);
}

TEST(Replay, EagerBlockingSendReturnsImmediately) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1000).compute(0, 50'000);
  b.recv(1, 0, 0, 1000);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  EXPECT_NEAR(result.rank_stats[0].send_blocked_s, 0.0, 1e-12);
  EXPECT_NEAR(result.rank_stats[0].finish_time, 50.0 * kUs, 1e-12);
  // Receiver blocks until arrival: latency + 10 us serialization.
  EXPECT_NEAR(result.rank_stats[1].finish_time, 20.0 * kUs, 1e-12);
}

TEST(Replay, RendezvousWaitsForReceiver) {
  // 1 MB rendezvous message; receiver posts the recv after 50 us.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1'000'000);
  b.compute(1, 50'000).recv(1, 0, 0, 1'000'000);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  // Transfer starts at 50us (recv post), 10 ms serialization + 10 us.
  const double expected = 50.0 * kUs + 0.01 + 10.0 * kUs;
  EXPECT_NEAR(result.makespan, expected, 1e-9);
  // Blocking sender is stuck the whole time.
  EXPECT_NEAR(result.rank_stats[0].send_blocked_s, expected, 1e-9);
}

TEST(Replay, SynchronousFlagForcesRendezvous) {
  // The same small message, once eager and once forced-synchronous.
  auto build = [](bool synchronous) {
    TraceBuilder b(2, 1000.0);
    Trace t = std::move(b).build();
    t.ranks[0].push_back(trace::Send{1, 0, 100, false, trace::kNoRequest,
                                     synchronous});
    t.ranks[1].push_back(trace::CpuBurst{200'000});
    t.ranks[1].push_back(trace::Recv{0, 0, 100, false, trace::kNoRequest});
    return t;
  };
  const double t_eager = replay(build(false), test_platform(2)).makespan;
  const double t_sync = replay(build(true), test_platform(2)).makespan;
  EXPECT_NEAR(t_eager, 200.0 * kUs, 1e-9);   // arrival long before the recv
  EXPECT_GT(t_sync, 200.0 * kUs + 10.0 * kUs - 1e-9);  // starts at recv post
}

TEST(Replay, IrecvWaitOverlapsCompute) {
  // irecv + compute + wait: the transfer overlaps the burst.
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 0, 1000, 1).compute(0, 100'000).wait(0, {1});
  b.send(1, 0, 0, 1000);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  EXPECT_NEAR(result.makespan, 100.0 * kUs, 1e-12);
  EXPECT_NEAR(result.rank_stats[0].wait_blocked_s, 0.0, 1e-12);
}

TEST(Replay, WaitBlocksUntilArrival) {
  TraceBuilder b(2, 1000.0);
  b.irecv(0, 1, 0, 1000, 1).wait(0, {1});
  b.compute(1, 30'000).send(1, 0, 0, 1000);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  // Arrival at 30us + 10us serialization + 10us latency.
  EXPECT_NEAR(result.makespan, 50.0 * kUs, 1e-9);
  EXPECT_NEAR(result.rank_stats[0].wait_blocked_s, 50.0 * kUs, 1e-9);
}

TEST(Replay, WaitAllWaitsForEveryRequest) {
  TraceBuilder b(3, 1000.0);
  b.irecv(0, 1, 0, 100, 1).irecv(0, 2, 0, 100, 2).wait(0, {1, 2});
  b.compute(1, 10'000).send(1, 0, 0, 100);
  b.compute(2, 80'000).send(2, 0, 0, 100);
  const SimResult result = replay(std::move(b).build(), test_platform(3));
  EXPECT_GT(result.rank_stats[0].finish_time, 80.0 * kUs);
}

TEST(Replay, MessageOrderingNonOvertaking) {
  // Two same-tag messages must match in order; sizes confirm pairing.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 5, 100).send(0, 1, 5, 100);
  b.recv(1, 0, 5, 100).recv(1, 0, 5, 100);
  EXPECT_NO_THROW(replay(std::move(b).build(), test_platform(2)));
}

TEST(Replay, TagSelectsMessage) {
  // Receiver asks for tag 9 first even though tag 5 was sent first.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 5, 100).send(0, 1, 9, 200);
  b.recv(1, 0, 9, 200).recv(1, 0, 5, 100);
  EXPECT_NO_THROW(replay(std::move(b).build(), test_platform(2)));
}

TEST(Replay, WildcardReceives) {
  TraceBuilder b(3, 1000.0);
  b.recv(0, trace::kAnyRank, trace::kAnyTag, 100)
      .recv(0, trace::kAnyRank, trace::kAnyTag, 100);
  b.compute(1, 1000).send(1, 0, 1, 100);
  b.compute(2, 2000).send(2, 0, 2, 100);
  EXPECT_NO_THROW(replay(std::move(b).build(), test_platform(3)));
}

TEST(Replay, PingPongRoundTrip) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1000).recv(0, 1, 1, 1000);
  b.recv(1, 0, 0, 1000).send(1, 0, 1, 1000);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  // Each eager hop: 10 us serialization + 10 us latency.
  EXPECT_NEAR(result.makespan, 40.0 * kUs, 1e-9);
}

TEST(Replay, CollectivesAutoExpand) {
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    b.compute(r, 1000).global(r, CollectiveKind::kAllreduce, 0, 8, 0);
  }
  const SimResult result = replay(std::move(b).build(), test_platform(4));
  // Fan-in depth 2 + fan-out depth 2 at ~10us latency each: >= 40 us + 1 us.
  EXPECT_GT(result.makespan, 41.0 * kUs - 1e-9);
  EXPECT_LT(result.makespan, 100.0 * kUs);
}

TEST(Replay, BarrierSynchronizesSkewedRanks) {
  TraceBuilder b(3, 1000.0);
  b.compute(0, 1'000).global(0, CollectiveKind::kBarrier, 0, 0, 0);
  b.compute(1, 500'000).global(1, CollectiveKind::kBarrier, 0, 0, 0);
  b.compute(2, 2'000).global(2, CollectiveKind::kBarrier, 0, 0, 0);
  const SimResult result = replay(std::move(b).build(), test_platform(3));
  // Nobody leaves the barrier before the slowest rank arrives.
  for (const auto& stats : result.rank_stats) {
    EXPECT_GE(stats.finish_time, 500.0 * kUs);
  }
}

TEST(Replay, DeadlockDetectedAndDescribed) {
  // Two rendezvous blocking sends facing each other: classic deadlock.
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 0, 1'000'000).recv(0, 1, 0, 1'000'000);
  b.send(1, 0, 0, 1'000'000).recv(1, 0, 0, 1'000'000);
  try {
    replay(std::move(b).build(), test_platform(2));
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos);
  }
}

TEST(Replay, MaxSimTimeGuard) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 10'000'000);  // 10 ms
  ReplayOptions options;
  options.max_sim_time_s = 1e-3;
  EXPECT_THROW(replay(std::move(b).build(), test_platform(1), options),
               Error);
}

TEST(Replay, PlatformMustHaveEnoughNodes) {
  TraceBuilder b(4, 1000.0);
  b.compute(0, 1);
  EXPECT_DEATH(replay(std::move(b).build(), test_platform(2)),
               "fewer nodes");
}

// The replay numbers each rank's requests densely (trace::compile), so the
// ids a trace uses must not matter: remapping every request id of the
// bundled apps' traces to sparse 64-bit values replays to the same bits.
Trace with_sparse_requests(const Trace& in, std::size_t* remapped) {
  const auto sparse = [remapped](trace::ReqId id) {
    ++*remapped;
    return static_cast<trace::ReqId>(static_cast<std::uint64_t>(id) *
                                         (std::uint64_t{1} << 33) +
                                     7);
  };
  Trace out = in;
  for (std::vector<trace::Record>& stream : out.ranks) {
    for (trace::Record& rec : stream) {
      if (auto* send = std::get_if<trace::Send>(&rec)) {
        if (send->immediate) send->request = sparse(send->request);
      } else if (auto* recv = std::get_if<trace::Recv>(&rec)) {
        if (recv->immediate) recv->request = sparse(recv->request);
      } else if (auto* wait = std::get_if<trace::Wait>(&rec)) {
        for (trace::ReqId& request : wait->requests) {
          request = sparse(request);
        }
      }
    }
  }
  return out;
}

TEST(Replay, RequestIdsDoNotChangeTheReplay) {
  int replays = 0;
  std::size_t remapped = 0;
  testing_fixtures::for_each_app_context(
      [&](const std::string& app, const char* variant, std::int32_t,
          const pipeline::ReplayContext& context) {
        SCOPED_TRACE(app + " " + variant);
        const Trace sparse = with_sparse_requests(context.trace(), &remapped);
        const SimResult want = replay(context.trace(), context.platform());
        const SimResult got = replay(sparse, context.platform());
        EXPECT_EQ(strprintf("%a", got.makespan),
                  strprintf("%a", want.makespan));
        EXPECT_EQ(got.des_events, want.des_events);
        EXPECT_EQ(got.rank_stats, want.rank_stats);
        ++replays;
      },
      {16});
  EXPECT_EQ(replays, 12);
  EXPECT_GT(remapped, 10'000u);
}

TEST(ReplayDeathTest, WaitOnANeverIssuedRequestAborts) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 10).wait(0, {5});
  EXPECT_DEATH(replay(std::move(b).build(), test_platform(1)),
               "wait on unknown request \\(trace not validated\\?\\)");
}

TEST(ReplayDeathTest, WaitBeforeItsRequestIsIssuedAborts) {
  TraceBuilder b(2, 1000.0);
  b.wait(0, {3}).isend(0, 1, 0, 64, 3).wait(0, {3});
  b.recv(1, 0, 0, 64);
  EXPECT_DEATH(replay(std::move(b).build(), test_platform(2)),
               "wait on unknown request");
}

TEST(ReplayDeathTest, ReusedRequestIdAborts) {
  // Even after its Wait consumed it, an id names one request only.
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 0, 64, 9).wait(0, {9}).isend(0, 1, 1, 64, 9).wait(0, {9});
  b.recv(1, 0, 0, 64).recv(1, 0, 1, 64);
  EXPECT_DEATH(replay(std::move(b).build(), test_platform(2)),
               "duplicate request id in trace");
}

TEST(Replay, TimelineRecording) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 10'000).send(0, 1, 0, 1'000'000);  // rendezvous: will block
  b.compute(1, 50'000).recv(1, 0, 0, 1'000'000);
  ReplayOptions options;
  options.record_timeline = true;
  const SimResult result =
      replay(std::move(b).build(), test_platform(2), options);
  ASSERT_EQ(result.timelines.size(), 2u);
  // Rank 0: one compute interval and one send-blocked interval.
  ASSERT_GE(result.timelines[0].size(), 2u);
  EXPECT_EQ(result.timelines[0][0].state, RankState::kCompute);
  EXPECT_NEAR(result.timelines[0][0].end - result.timelines[0][0].begin,
              10.0 * kUs, 1e-12);
  EXPECT_EQ(result.timelines[0][1].state, RankState::kSendBlocked);
  // Intervals are chronological and non-overlapping.
  for (const auto& timeline : result.timelines) {
    for (std::size_t i = 1; i < timeline.size(); ++i) {
      EXPECT_GE(timeline[i].begin, timeline[i - 1].end - 1e-12);
    }
  }
}

TEST(Replay, CommRecording) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 5'000).send(0, 1, 42, 2000);
  b.recv(1, 0, 42, 2000);
  ReplayOptions options;
  options.record_comms = true;
  const SimResult result =
      replay(std::move(b).build(), test_platform(2), options);
  ASSERT_EQ(result.comms.size(), 1u);
  const CommEvent& comm = result.comms[0];
  EXPECT_EQ(comm.src, 0);
  EXPECT_EQ(comm.dst, 1);
  EXPECT_EQ(comm.tag, 42);
  EXPECT_EQ(comm.bytes, 2000u);
  EXPECT_NEAR(comm.send_call_time, 5.0 * kUs, 1e-12);
  EXPECT_NEAR(comm.transfer_start, 5.0 * kUs, 1e-12);
  EXPECT_NEAR(comm.arrival_time, 5.0 * kUs + 20.0 * kUs + 10.0 * kUs,
              1e-9);
  EXPECT_GE(comm.recv_complete_time, comm.arrival_time - 1e-12);
}

TEST(Replay, Deterministic) {
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    b.compute(r, 1000 + 100 * static_cast<std::uint64_t>(r));
    b.global(r, CollectiveKind::kAlltoall, 0, 512, 0);
    b.compute(r, 500);
    b.global(r, CollectiveKind::kAllreduce, 0, 8, 1);
  }
  const Trace t = std::move(b).build();
  const double first = replay(t, test_platform(4)).makespan;
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(replay(t, test_platform(4)).makespan, first);
  }
}

TEST(Replay, StatsAccounting) {
  TraceBuilder b(2, 1000.0);
  b.compute(0, 10'000).send(0, 1, 0, 500).send(0, 1, 1, 700);
  b.recv(1, 0, 0, 500).recv(1, 0, 1, 700);
  const SimResult result = replay(std::move(b).build(), test_platform(2));
  EXPECT_EQ(result.rank_stats[0].messages_sent, 2u);
  EXPECT_EQ(result.rank_stats[0].bytes_sent, 1200u);
  EXPECT_EQ(result.rank_stats[1].messages_received, 2u);
  EXPECT_GT(result.efficiency(), 0.0);
  EXPECT_LE(result.efficiency(), 1.0);
}

// --- property sweeps ----------------------------------------------------------

class BandwidthMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthMonotonicity, TimeNonIncreasingInBandwidth) {
  // A communication-heavy trace must never get slower when bandwidth grows.
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    const Rank next = static_cast<Rank>((r + 1) % 4);
    const Rank prev = static_cast<Rank>((r + 3) % 4);
    for (int i = 0; i < 3; ++i) {
      b.irecv(r, prev, i, 100'000, i + 1);
      b.compute(r, 20'000);
      b.send(r, next, i, 100'000);
      b.wait(r, {i + 1});
    }
  }
  const Trace t = std::move(b).build();

  Platform p = test_platform(4);
  p.bandwidth_MBps = GetParam();
  const double t_here = replay(t, p).makespan;
  p.bandwidth_MBps = GetParam() * 2.0;
  const double t_faster = replay(t, p).makespan;
  EXPECT_LE(t_faster, t_here + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BandwidthMonotonicity,
                         ::testing::Values(1.0, 10.0, 50.0, 100.0, 400.0,
                                           1000.0));

class BusMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(BusMonotonicity, TimeNonIncreasingInBuses) {
  TraceBuilder b(6, 1000.0);
  for (Rank r = 0; r < 6; ++r) {
    b.global(r, CollectiveKind::kAlltoall, 0, 50'000, 0);
  }
  const Trace t = std::move(b).build();
  Platform p = test_platform(6);
  p.num_buses = GetParam();
  const double t_here = replay(t, p).makespan;
  p.num_buses = GetParam() + 1;
  const double t_more = replay(t, p).makespan;
  EXPECT_LE(t_more, t_here + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BusMonotonicity,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12));

TEST(Replay, FairShareModelRuns) {
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    b.global(r, CollectiveKind::kAlltoall, 0, 50'000, 0);
  }
  const Trace t = std::move(b).build();
  Platform p = test_platform(4);
  p.model = NetworkModelKind::kFairShare;
  p.fabric_capacity_links = 2.0;
  const SimResult result = replay(t, p);
  EXPECT_GT(result.makespan, 0.0);
  // The fair-share fabric of 2 links is more restrictive than unlimited
  // buses; the bus model with plenty of buses must be at least as fast.
  Platform bus = test_platform(4);
  EXPECT_LE(replay(t, bus).makespan, result.makespan + 1e-9);
}

// Regression: a wait over several requests must attribute the blocked
// interval to the *last* releasing rank, preferring a real remote
// constraint over "no constraint" when completions tie. Rank 2 waits on
// two rendezvous receives that arrive at the same instant: the transfer
// from rank 0 carries a causal constraint (rank 0's send call at 100 us,
// after the recv was posted) while the transfer from rank 1 was only
// gated by rank 2's own late post (cause -1). The recorded cause must be
// rank 0, not whichever request happened to complete last in event order.
TEST(Replay, WaitallRecordsLastReleasingRank) {
  constexpr std::int64_t kInstr = 100'000;   // 100 us at 1000 MIPS
  constexpr std::uint64_t kBytes = 100'000;  // rendezvous (> 16 KiB)
  TraceBuilder b(3, 1000.0);
  b.compute(0, kInstr);
  b.send(0, 2, 0, kBytes);      // called at 100 us, recv already posted
  b.isend(1, 2, 1, kBytes, 9);  // called at t=0, recv posted at 100 us
  b.wait(1, {9});
  b.irecv(2, 0, 0, kBytes, 1);  // posted at t=0
  b.compute(2, kInstr);
  b.irecv(2, 1, 1, kBytes, 2);  // posted at 100 us
  b.wait(2, {1, 2});
  Platform p = test_platform(3);
  p.input_ports = 2;  // both transfers start together: identical arrivals
  ReplayOptions options;
  options.record_timeline = true;
  const SimResult result = replay(std::move(b).build(), p, options);

  const StateInterval* wait = nullptr;
  for (const StateInterval& iv : result.timelines[2]) {
    if (iv.state == RankState::kWaitBlocked) wait = &iv;
  }
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->cause_rank, 0);
  EXPECT_NEAR(wait->cause_time, 100.0 * kUs, 1e-12);
}

// Message conservation: bytes are credited to the receiver at delivery,
// so once a replay drains, global bytes_sent == bytes_received — across
// eager, rendezvous, and expanded collective traffic alike.
TEST(Replay, BytesConservationIncludingCollectives) {
  TraceBuilder b(4, 1000.0);
  for (Rank r = 0; r < 4; ++r) {
    b.compute(r, 1000 * (r + 1));
    b.global(r, CollectiveKind::kAllreduce, 0, 4096, 0);
  }
  b.send(0, 1, 0, 2000);  // eager
  b.recv(1, 0, 0, 2000);
  b.isend(2, 3, 1, 50'000, 5);  // rendezvous
  b.wait(2, {5});
  b.irecv(3, 2, 1, 50'000, 7);
  b.wait(3, {7});
  for (Rank r = 0; r < 4; ++r) {
    b.global(r, CollectiveKind::kAlltoall, 0, 8192, 1);
  }
  const SimResult result = replay(std::move(b).build(), test_platform(4));
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const RankStats& s : result.rank_stats) {
    sent += s.bytes_sent;
    received += s.bytes_received;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
}

}  // namespace
}  // namespace osim::dimemas
