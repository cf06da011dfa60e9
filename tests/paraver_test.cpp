// Tests for the Paraver output stage: .prv/.pcf/.row bundles, ASCII
// rendering, and communication summaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app_traces.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/replay.hpp"
#include "paraver/paraver.hpp"
#include "pipeline/report.hpp"
#include "trace/trace.hpp"

namespace osim::paraver {
namespace {

dimemas::SimResult sample_result() {
  trace::TraceBuilder b(2, 1000.0);
  b.compute(0, 50'000).send(0, 1, 3, 2'000'000).compute(0, 10'000);
  b.compute(1, 20'000).recv(1, 0, 3, 2'000'000).compute(1, 30'000);
  dimemas::Platform p;
  p.num_nodes = 2;
  p.bandwidth_MBps = 100.0;
  p.latency_us = 10.0;
  dimemas::ReplayOptions options;
  options.record_timeline = true;
  options.record_comms = true;
  return dimemas::replay(std::move(b).build(), p, options);
}

TEST(Paraver, StateMapping) {
  EXPECT_EQ(to_prv_state(dimemas::RankState::kCompute), PrvState::kRunning);
  EXPECT_EQ(to_prv_state(dimemas::RankState::kRecvBlocked),
            PrvState::kWaitingMessage);
  EXPECT_EQ(to_prv_state(dimemas::RankState::kSendBlocked),
            PrvState::kBlockedSend);
}

TEST(Paraver, PrvBundleStructure) {
  const auto result = sample_result();
  const std::string base = ::testing::TempDir() + "/osim_paraver_test";
  write_prv_bundle(result, base, "testapp");

  std::ifstream prv(base + ".prv");
  ASSERT_TRUE(prv.good());
  std::string header;
  ASSERT_TRUE(std::getline(prv, header));
  EXPECT_EQ(header.rfind("#Paraver", 0), 0u);
  EXPECT_NE(header.find(":2("), std::string::npos);  // 2 nodes

  std::size_t state_records = 0;
  std::size_t comm_records = 0;
  std::string line;
  while (std::getline(prv, line)) {
    if (line.rfind("1:", 0) == 0) ++state_records;
    if (line.rfind("3:", 0) == 0) ++comm_records;
    // Every record is colon-separated integers.
    for (const char c : line) {
      EXPECT_TRUE((c >= '0' && c <= '9') || c == ':' || c == '-');
    }
  }
  EXPECT_GT(state_records, 3u);
  EXPECT_EQ(comm_records, 1u);

  std::ifstream pcf(base + ".pcf");
  ASSERT_TRUE(pcf.good());
  std::stringstream pcf_text;
  pcf_text << pcf.rdbuf();
  EXPECT_NE(pcf_text.str().find("STATES"), std::string::npos);
  EXPECT_NE(pcf_text.str().find("Running"), std::string::npos);

  std::ifstream row(base + ".row");
  ASSERT_TRUE(row.good());
  std::string row_line;
  ASSERT_TRUE(std::getline(row, row_line));
  EXPECT_NE(row_line.find("SIZE 2"), std::string::npos);
  ASSERT_TRUE(std::getline(row, row_line));
  EXPECT_EQ(row_line, "testapp.1");
}

TEST(Paraver, PrvRequiresTimelines) {
  dimemas::SimResult empty;
  empty.rank_stats.resize(2);
  EXPECT_DEATH(write_prv_bundle(empty, "/tmp/x", "x"), "timelines");
}

TEST(Paraver, AsciiRenderBasics) {
  const auto result = sample_result();
  AsciiOptions options;
  options.width = 60;
  const std::string out = render_ascii(result, options);
  EXPECT_NE(out.find("rank  0"), std::string::npos);
  EXPECT_NE(out.find("rank  1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);   // compute visible
  EXPECT_NE(out.find("legend"), std::string::npos);
  EXPECT_NE(out.find("compute"), std::string::npos);
  // The rendered row is exactly width chars between the pipes.
  const std::size_t bar = out.find('|');
  const std::size_t bar2 = out.find('|', bar + 1);
  EXPECT_EQ(bar2 - bar - 1, 60u);
}

TEST(Paraver, AsciiShowsBlockedStates) {
  const auto result = sample_result();
  AsciiOptions options;
  options.width = 80;
  const std::string out = render_ascii(result, options);
  // The rendezvous sender blocks ('S') and the receiver waits ('r').
  EXPECT_NE(out.find('S'), std::string::npos);
  EXPECT_NE(out.find('r'), std::string::npos);
}

TEST(Paraver, ComparisonSharesTimeAxis) {
  const auto result = sample_result();
  const std::string out =
      render_comparison(result, "run A", result, "run B");
  EXPECT_NE(out.find("run A"), std::string::npos);
  EXPECT_NE(out.find("run B"), std::string::npos);
}

TEST(Paraver, ProfileSumsToHundred) {
  const auto result = sample_result();
  const std::string out = render_profile(result);
  EXPECT_NE(out.find("state profile"), std::string::npos);
  EXPECT_NE(out.find("rank"), std::string::npos);
  // The sender spends time blocked in its rendezvous send.
  EXPECT_NE(out.find("blocked send"), std::string::npos);
}

TEST(Paraver, CommSummary) {
  const auto result = sample_result();
  const CommSummary summary = summarize_comms(result);
  EXPECT_EQ(summary.messages, 1u);
  EXPECT_DOUBLE_EQ(summary.total_bytes, 2'000'000.0);
  // 2 MB at 100 MB/s = 20 ms wire time.
  EXPECT_NEAR(summary.mean_flight_s, 0.02 + 10e-6, 1e-6);
  EXPECT_GT(summary.mean_send_lead_s, 0.0);
}

TEST(Paraver, CommSummaryEmpty) {
  dimemas::SimResult empty;
  const CommSummary summary = summarize_comms(empty);
  EXPECT_EQ(summary.messages, 0u);
  EXPECT_DOUBLE_EQ(summary.mean_flight_s, 0.0);
}

// --- golden bundle and report bytes on every bundled application -----------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string size_and_hash(const std::string& bytes) {
  return strprintf("%zu:%016llx", bytes.size(),
                   static_cast<unsigned long long>(
                       testing_fixtures::fnv1a64(bytes)));
}

/// One line per (app, variant): the size and FNV-1a 64 of the .prv, .pcf
/// and .row files osim_replay --prv writes (timeline, comms and metrics,
/// so the occupancy counter records are in), and of the run report of a
/// metrics-only replay (the osim_replay --report replay, without lint).
std::vector<std::string> bundle_lines() {
  const std::string base = ::testing::TempDir() + "/osim_paraver_golden_" +
                           std::to_string(::getpid());
  std::vector<std::string> lines;
  testing_fixtures::for_each_app_context(
      [&](const std::string& app, const char* variant, std::int32_t ranks,
          const pipeline::ReplayContext& context) {
        dimemas::ReplayOptions prv = context.options();
        prv.collect_metrics = true;
        prv.record_timeline = true;
        prv.record_comms = true;
        write_prv_bundle(
            dimemas::replay(context.trace(), context.platform(), prv), base,
            app);
        dimemas::ReplayOptions report = context.options();
        report.collect_metrics = true;
        const std::string json = pipeline::replay_report_json(
            dimemas::replay(context.trace(), context.platform(), report),
            context.platform(), app);
        lines.push_back(strprintf(
            "%s %s ranks=%d prv=%s pcf=%s row=%s report=%s", app.c_str(),
            variant, ranks, size_and_hash(read_file(base + ".prv")).c_str(),
            size_and_hash(read_file(base + ".pcf")).c_str(),
            size_and_hash(read_file(base + ".row")).c_str(),
            size_and_hash(json).c_str()));
      },
      {16});
  for (const char* ext : {".prv", ".pcf", ".row"}) {
    std::remove((base + ext).c_str());
  }
  return lines;
}

// tests/golden/paraver_bundle.golden pins the bytes before the replay
// stopped keeping occupancy samples for replays that cannot write a
// Paraver bundle: the counter records must still be all there, and the
// run report must not change.
TEST(ParaverGolden, BundleAndReportBytesMatchGolden) {
  const std::string path =
      std::string(OSIM_GOLDEN_DIR) + "/paraver_bundle.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  const std::vector<std::string> lines = bundle_lines();
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << i;
  }
}

}  // namespace
}  // namespace osim::paraver
