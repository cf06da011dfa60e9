// Replay-identity gate for the hot-path optimizations.
//
// The calendar queue, arena allocation, SoA record streams and mmap trace
// ingestion are pure performance work: results must stay bit-identical to
// the pre-optimization tree. tests/golden/perf_identity.golden was
// generated from that tree with tests/identity_lines.hpp; these tests
// regenerate the lines — serial, at --jobs 8, and through a cold and a
// warm disk cache — and require an exact match. A separate fuzz case
// hammers the mmap salvage path with corrupted binary traces.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "identity_lines.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace {

/// The golden's 8-rank identity lines, or (scale = true) its 1024-rank
/// scale lines, which identity::scale_lines marks with " ranks=".
std::vector<std::string> golden_lines(bool scale = false) {
  const std::string path = std::string(OSIM_GOLDEN_DIR) +
                           "/perf_identity.golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if ((line.find(" ranks=") != std::string::npos) == scale) {
      lines.push_back(line);
    }
  }
  return lines;
}

void expect_matches_golden(const std::vector<std::string>& lines,
                           bool scale = false) {
  const std::vector<std::string> golden = golden_lines(scale);
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << i;
  }
}

TEST(PerfIdentity, SerialMatchesSeedGolden) {
  pipeline::Study study;
  expect_matches_golden(identity::identity_lines(study));
}

// The 1024-rank lines were generated before BusNetwork indexed its queue
// by port and the calendar buckets became heaps: both are pure speedups,
// so the replays at the scale where they matter stay bit-identical.
TEST(PerfIdentity, ScaleLinesMatchGolden) {
  expect_matches_golden(identity::scale_lines(), /*scale=*/true);
}

TEST(PerfIdentity, ParallelJobsMatchSeedGolden) {
  pipeline::StudyOptions options;
  options.jobs = 8;
  pipeline::Study study(options);
  expect_matches_golden(identity::identity_lines(study));
}

TEST(PerfIdentity, ColdAndWarmDiskCacheMatchSeedGolden) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("osim_perf_identity_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  pipeline::StudyOptions options;
  options.cache_dir = dir.string();

  // Summary makespans (the store's cacheable level) for every app/variant,
  // cold then warm, must agree bit for bit with the full-result replays
  // the golden lines were computed from.
  std::vector<double> cold;
  {
    pipeline::Study study(options);
    for (const apps::MiniApp* app : apps::registry()) {
      const tracer::TracedRun traced =
          apps::trace_app(*app, identity::identity_config(*app), {});
      for (const pipeline::ReplayContext& context :
           identity::identity_contexts(*app, traced)) {
        cold.push_back(study.makespan(context));
      }
    }
    EXPECT_EQ(study.disk_hits(), 0u);
  }
  std::vector<double> warm;
  std::size_t disk_hits = 0;
  {
    pipeline::Study study(options);
    for (const apps::MiniApp* app : apps::registry()) {
      const tracer::TracedRun traced =
          apps::trace_app(*app, identity::identity_config(*app), {});
      for (const pipeline::ReplayContext& context :
           identity::identity_contexts(*app, traced)) {
        warm.push_back(study.makespan(context));
      }
    }
    disk_hits = study.disk_hits();
  }
  std::filesystem::remove_all(dir);
  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_GT(disk_hits, 0u);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "scenario " << i;
  }

  // Cross-check against the golden makespans: line order is
  // (app x variant) with a report line after each app's three variants.
  const std::vector<std::string> golden = golden_lines();
  std::vector<double> golden_makespans;
  for (const std::string& line : golden) {
    const std::size_t at = line.find("makespan=");
    if (at == std::string::npos) continue;
    golden_makespans.push_back(
        std::strtod(line.c_str() + at + sizeof("makespan=") - 1, nullptr));
  }
  ASSERT_EQ(golden_makespans.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], golden_makespans[i]) << "scenario " << i;
  }
}

// --- mmap salvage fuzz ---------------------------------------------------

trace::Trace fuzz_subject() {
  trace::TraceBuilder b(4, 1000.0, "fuzz");
  for (trace::Rank r = 0; r < 4; ++r) {
    b.compute(r, 5'000);
    const trace::Rank peer = static_cast<trace::Rank>(r ^ 1);
    b.isend(r, peer, 7, 64 * 1024, r * 10 + 1);
    b.irecv(r, peer, 7, 64 * 1024, r * 10 + 2);
    b.wait(r, {r * 10 + 1, r * 10 + 2});
    b.compute(r, 2'000);
  }
  return std::move(b).build();
}

TEST(PerfIdentity, MmapOfCorruptedTraceNeverCrashes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("osim_mmap_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string clean_path = (dir / "clean.trace").string();
  trace::write_binary_file(fuzz_subject(), clean_path);

  std::ifstream in(clean_path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string clean = buf.str();
  ASSERT_GT(clean.size(), 32u);

  // The clean file round-trips bit-exact through the mmap reader.
  {
    const trace::RecoveredTrace recovered =
        trace::read_any_file_recover(clean_path);
    EXPECT_TRUE(recovered.damage.clean())
        << recovered.damage.render_text();
    EXPECT_EQ(trace::write_text(recovered.trace),
              trace::write_text(fuzz_subject()));
  }

  const std::string fuzz_path = (dir / "fuzz.trace").string();
  const auto write_bytes = [&](const std::string& bytes) {
    std::ofstream out(fuzz_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Single-byte flips at every offset: the salvage reader must return a
  // result (possibly empty) and never crash or throw. A flip inside a rank
  // stream must be caught — by the parser or by the CRC footer.
  std::mt19937 rng(7);
  for (std::size_t offset = 0; offset < clean.size(); ++offset) {
    std::string damaged = clean;
    damaged[offset] =
        static_cast<char>(damaged[offset] ^ (1 + rng() % 255));
    write_bytes(damaged);
    const trace::RecoveredTrace recovered =
        trace::read_any_file_recover(fuzz_path);
    (void)recovered;
  }

  // Truncations at every length, including zero.
  for (std::size_t len = 0; len < clean.size(); ++len) {
    write_bytes(clean.substr(0, len));
    const trace::RecoveredTrace recovered =
        trace::read_any_file_recover(fuzz_path);
    (void)recovered;
  }

  // A flip strictly inside a rank stream (past the header, before the
  // footer) must be reported as damage, not silently accepted.
  const std::size_t header = 8 + 8 + 1 + 1 + 4;  // magic+mips+ranks+len+app
  const std::size_t footer = clean.size() - (8 + 4 * 4);
  std::size_t reported = 0;
  std::size_t stream_flips = 0;
  for (std::size_t offset = header; offset < footer; ++offset) {
    std::string damaged = clean;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x40);
    write_bytes(damaged);
    ++stream_flips;
    const trace::RecoveredTrace recovered =
        trace::read_any_file_recover(fuzz_path);
    if (!recovered.damage.clean()) ++reported;
  }
  // The CRC footer catches byte flips that still parse; close to every
  // stream flip must surface (a flip can only go unreported by colliding
  // CRC32, which a 0x40 single-bit flip cannot).
  EXPECT_EQ(reported, stream_flips);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace osim
