// Tests for the persistent scenario store (src/store): object format
// strictness, store round trips, damage handling, maintenance (stats /
// verify / gc), and — the acceptance property — a warm Study run served
// entirely from the disk tier with bit-identical makespans.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/expect.hpp"
#include "pipeline/context.hpp"
#include "pipeline/fingerprint.hpp"
#include "pipeline/report.hpp"
#include "pipeline/study.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

#include "object_bytes.hpp"

// Largest single heap allocation made while the probe is armed, so a test
// can prove a forged count is rejected before it drives an allocation.
namespace alloc_probe {
std::atomic<bool> armed{false};
std::atomic<std::size_t> largest{0};
}  // namespace alloc_probe

// The replacement pair is malloc/free on both sides; GCC cannot see that
// through the replaceable operators and warns at every inlined delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (alloc_probe::armed.load(std::memory_order_relaxed) &&
      size > alloc_probe::largest.load(std::memory_order_relaxed)) {
    alloc_probe::largest.store(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace osim::store {
namespace {

namespace fs = std::filesystem;

// Fresh per-test store root under gtest's temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_store_" + name;
  fs::remove_all(dir);
  return dir;
}

pipeline::Fingerprint fp(std::uint64_t lo, std::uint64_t hi) {
  return pipeline::Fingerprint{lo, hi};
}

ScenarioArtifact sample_artifact(int seed) {
  ScenarioArtifact a;
  a.makespan = 1.25 + 0.125 * seed;
  a.des_events = 1000 + static_cast<std::uint64_t>(seed);
  a.fault_wait_s = seed % 2 == 0 ? 0.0 : 0.03125 * seed;
  a.fault_counts.enabled = seed % 2 != 0;
  a.fault_counts.seed = static_cast<std::uint64_t>(seed);
  a.fault_counts.retransmits = static_cast<std::uint64_t>(2 * seed);
  for (int r = 0; r < 3; ++r) {
    dimemas::RankStats rs;
    rs.compute_s = 0.5 * r + seed;
    rs.send_blocked_s = 0.25 * r;
    rs.recv_blocked_s = 0.125 * r;
    rs.finish_time = 1.0 + r;
    rs.messages_sent = static_cast<std::uint64_t>(10 * r + seed);
    rs.bytes_sent = static_cast<std::uint64_t>(1024 * r);
    rs.bytes_received = static_cast<std::uint64_t>(2048 * r);
    a.rank_stats.push_back(rs);
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using object_bytes::kPayloadAt;
using object_bytes::kPayloadSizeAt;
using object_bytes::with_field;

// Payload offsets behind the 36-byte envelope header.
constexpr std::size_t kFaultsEnabledAt = kPayloadAt + 4 * 8;
constexpr std::size_t kRankCountAt = kFaultsEnabledAt + 1 + 8 * 8 + 2 * 8;

// Ring exchange (as in pipeline_test.cpp): communication-bound enough that
// bandwidth changes move the makespan, so sweeps produce distinct keys.
trace::Trace ring_trace(std::int32_t ranks, int rounds) {
  trace::TraceBuilder b(ranks, 1000.0);
  for (trace::Rank r = 0; r < ranks; ++r) {
    const trace::Rank next = static_cast<trace::Rank>((r + 1) % ranks);
    const trace::Rank prev =
        static_cast<trace::Rank>((r + ranks - 1) % ranks);
    for (int i = 0; i < rounds; ++i) {
      b.irecv(r, prev, i, 32 * 1024, i + 1);
      b.compute(r, 20'000);
      b.send(r, next, i, 32 * 1024);
      b.wait(r, {i + 1});
    }
  }
  return std::move(b).build();
}

dimemas::Platform ring_platform(std::int32_t nodes) {
  dimemas::Platform p;
  p.num_nodes = nodes;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  return p;
}

// --- fingerprint hex --------------------------------------------------------

TEST(FingerprintHex, RoundTrip) {
  const pipeline::Fingerprint f = fp(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
  const std::string hex = pipeline::to_hex(f);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "fedcba98765432100123456789abcdef");
  const auto parsed = pipeline::fingerprint_from_hex(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
}

TEST(FingerprintHex, RejectsMalformed) {
  EXPECT_FALSE(pipeline::fingerprint_from_hex("").has_value());
  EXPECT_FALSE(pipeline::fingerprint_from_hex("abc").has_value());
  EXPECT_FALSE(pipeline::fingerprint_from_hex(std::string(31, 'a')));
  EXPECT_FALSE(pipeline::fingerprint_from_hex(std::string(33, 'a')));
  std::string bad(32, 'a');
  bad[7] = 'g';
  EXPECT_FALSE(pipeline::fingerprint_from_hex(bad).has_value());
}

// --- object format ----------------------------------------------------------

TEST(StoreFormat, EncodeDecodeRoundTrip) {
  const ScenarioArtifact artifact = sample_artifact(3);
  const pipeline::Fingerprint key = fp(11, 22);
  const std::string bytes = encode_object(key, artifact);
  const auto decoded = decode_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, key);
  EXPECT_EQ(decoded->artifact, artifact);
}

// Payload bounds, each under a valid envelope so only the bound can
// reject the object.

TEST(StoreFormat, FaultsEnabledByteAboveOneIsAMiss) {
  ScenarioArtifact artifact = sample_artifact(1);
  const std::string good = encode_object(fp(1, 2), artifact);
  EXPECT_TRUE(decode_object(
                  with_field<std::uint8_t>(good, kFaultsEnabledAt, 1))
                  .has_value());
  EXPECT_FALSE(decode_object(
                   with_field<std::uint8_t>(good, kFaultsEnabledAt, 2))
                   .has_value());
}

TEST(StoreFormat, RankCountAboveBoundIsAMiss) {
  ScenarioArtifact artifact = sample_artifact(2);
  artifact.rank_stats.clear();
  const std::string good = encode_object(fp(1, 2), artifact);
  ASSERT_EQ(good.size(), kRankCountAt + 8 + 4);
  // Above kMaxRanks (2^20) the count is rejected before any allocation
  // (2^20 + 1 rank slots would be about 75 MB).
  const std::string forged =
      with_field<std::uint64_t>(good, kRankCountAt, (1u << 20) + 1);
  alloc_probe::largest = 0;
  alloc_probe::armed = true;
  const bool decoded = decode_object(forged).has_value();
  alloc_probe::armed = false;
  EXPECT_FALSE(decoded);
  EXPECT_LT(alloc_probe::largest.load(), std::size_t{1} << 20);
  EXPECT_FALSE(
      decode_object(with_field<std::uint64_t>(good, kRankCountAt, 1))
          .has_value());  // short payload
}

// A payload byte appended under a matching declared size and a valid CRC
// passes the envelope; the payload decoder must still reject it.
std::string with_trailing_payload_byte(std::string object) {
  object.insert(object.size() - 4, 1, '\0');
  const std::uint64_t size = bytes::load_le<std::uint64_t>(
      object.data() + kPayloadSizeAt);
  return with_field<std::uint64_t>(std::move(object), kPayloadSizeAt,
                                   size + 1);
}

TEST(StoreFormat, TrailingPayloadBytesAreAMiss) {
  const std::string good = encode_object(fp(1, 2), sample_artifact(3));
  EXPECT_FALSE(decode_object(with_trailing_payload_byte(good)).has_value());
  lint::Report report;
  report.error("match", 0, 1, "m");
  const std::string lint = encode_lint_object(fp(1, 2), report);
  EXPECT_FALSE(
      decode_lint_object(with_trailing_payload_byte(lint)).has_value());
}

lint::Report one_diagnostic_report(std::string message) {
  lint::Report report;
  lint::Diagnostic d;
  d.severity = lint::Severity::kError;
  d.pass = "match";
  d.message = std::move(message);
  report.add(std::move(d));
  return report;
}

TEST(LintObjectFormat, SeverityAboveErrorIsAMiss) {
  const std::string good =
      encode_lint_object(fp(3, 4), one_diagnostic_report("m"));
  const std::size_t severity_at = kPayloadAt + 8;
  EXPECT_TRUE(decode_lint_object(
                  with_field<std::uint8_t>(good, severity_at, 2))
                  .has_value());
  EXPECT_FALSE(decode_lint_object(
                   with_field<std::uint8_t>(good, severity_at, 3))
                   .has_value());
}

TEST(LintObjectFormat, DiagnosticCountAboveBoundIsAMiss) {
  const std::string good =
      encode_lint_object(fp(3, 4), one_diagnostic_report("m"));
  // Above kMaxDiagnostics (2^22) the count is rejected outright.
  EXPECT_FALSE(decode_lint_object(with_field<std::uint64_t>(
                                      good, kPayloadAt, (1u << 22) + 1))
                   .has_value());
  EXPECT_FALSE(
      decode_lint_object(with_field<std::uint64_t>(good, kPayloadAt, 2))
          .has_value());  // short payload
}

TEST(LintObjectFormat, StringLongerThanBoundIsAMiss) {
  // kMaxStringBytes (2^24) is enforced even when every byte is present.
  const std::size_t bound = std::size_t{1} << 24;
  EXPECT_TRUE(decode_lint_object(encode_lint_object(
                                     fp(5, 6), one_diagnostic_report(
                                                   std::string(bound, 'a'))))
                  .has_value());
  EXPECT_FALSE(decode_lint_object(
                   encode_lint_object(fp(5, 6), one_diagnostic_report(
                                                    std::string(bound + 1,
                                                                'a'))))
                   .has_value());
}

// --- report objects (OSIMRPT1, the osim_serve durable tier) ----------------

TEST(ReportObject, EncodeDecodeRoundTrip) {
  const pipeline::Fingerprint scenario = fp(33, 44);
  const pipeline::Fingerprint addr = report_address(scenario);
  const std::string json = "{\"schema\":\"osim.run_report\",\"makespan\":1.5}";
  const std::string bytes = encode_report_object(addr, json);
  const auto decoded = decode_report_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, addr);
  EXPECT_EQ(decoded->report_json, json);
}

TEST(ReportObject, AddressNeverCollidesWithScenario) {
  // The report object shares the store's object tree with the replay
  // artifact of the same scenario; the domain-tagged derivation must give
  // it a different address or one kind would overwrite the other.
  const pipeline::Fingerprint scenario = fp(5, 6);
  EXPECT_FALSE(report_address(scenario) == scenario);
  // And the derivation is deterministic.
  EXPECT_EQ(report_address(scenario), report_address(scenario));
  EXPECT_FALSE(report_address(fp(5, 7)) == report_address(scenario));
}

TEST(ReportObject, StoreRoundTripAndProbe) {
  const std::string dir = fresh_dir("report_objects");
  ScenarioStore store(dir);
  const pipeline::Fingerprint scenario = fp(100, 200);
  const std::string json = "{\"schema\":\"osim.run_report\",\"app\":\"cg\"}";
  EXPECT_FALSE(store.load_report(scenario).has_value());
  store.save_report(scenario, json);
  const std::optional<std::string> loaded = store.load_report(scenario);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, json);
  // A replay artifact under the same scenario key coexists: different
  // addresses, one store.
  store.save(scenario, sample_artifact(2));
  EXPECT_TRUE(store.load(scenario).has_value());
  EXPECT_TRUE(store.load_report(scenario).has_value());
  // verify() understands the new kind (probe_object dispatch).
  EXPECT_TRUE(store.verify().clean());
}

TEST(ReportObject, CorruptReportObjectIsAMissAndGcRemovesIt) {
  const std::string dir = fresh_dir("report_corrupt");
  ScenarioStore store(dir);
  const pipeline::Fingerprint scenario = fp(9, 9);
  store.save_report(scenario, "{\"x\":true}");
  const std::string path = store.object_path(report_address(scenario));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(store.load_report(scenario).has_value());
  EXPECT_GE(store.rejects(), 1u);
  EXPECT_FALSE(store.verify().clean());
  store.gc(1 << 20);
  EXPECT_TRUE(store.verify().clean());
}

// --- ScenarioStore ----------------------------------------------------------

TEST(ScenarioStore, SaveLoadRoundTripAndMiss) {
  ScenarioStore store(fresh_dir("roundtrip"));
  const pipeline::Fingerprint key = fp(100, 200);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.misses(), 1u);

  const ScenarioArtifact artifact = sample_artifact(4);
  store.save(key, artifact);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, artifact);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_TRUE(fs::exists(store.object_path(key)));
}

TEST(ScenarioStore, CorruptObjectIsAMissNeverACrash) {
  ScenarioStore store(fresh_dir("corrupt"));
  const pipeline::Fingerprint key = fp(1, 2);
  store.save(key, sample_artifact(2));

  std::string bytes = read_file(store.object_path(key));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(store.object_path(key), bytes);

  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.rejects(), 1u);
  EXPECT_EQ(store.misses(), 1u);
}

TEST(ScenarioStore, CrossCopiedObjectIsAMiss) {
  // An intact object renamed to a different address must not be served:
  // the embedded fingerprint catches what a file CRC cannot.
  ScenarioStore store(fresh_dir("crosscopy"));
  const pipeline::Fingerprint a = fp(1, 2);
  const pipeline::Fingerprint b = fp(3, 4);
  store.save(a, sample_artifact(6));
  fs::create_directories(fs::path(store.object_path(b)).parent_path());
  fs::copy_file(store.object_path(a), store.object_path(b));
  EXPECT_FALSE(store.load(b).has_value());
  EXPECT_EQ(store.rejects(), 1u);
}

TEST(ScenarioStore, StatsCountObjectsAndBytes) {
  ScenarioStore store(fresh_dir("stats"));
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    store.save(fp(static_cast<std::uint64_t>(i), 9), sample_artifact(i));
    expected_bytes +=
        fs::file_size(store.object_path(fp(static_cast<std::uint64_t>(i), 9)));
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_EQ(stats.bytes, expected_bytes);
}

TEST(ScenarioStore, VerifyReportsDamage) {
  ScenarioStore store(fresh_dir("verify"));
  store.save(fp(1, 1), sample_artifact(1));
  store.save(fp(2, 2), sample_artifact(2));
  EXPECT_TRUE(store.verify().clean());

  std::string bytes = read_file(store.object_path(fp(2, 2)));
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xFF);
  write_file(store.object_path(fp(2, 2)), bytes);

  const VerifyReport report = store.verify();
  EXPECT_EQ(report.objects_checked, 2u);
  EXPECT_EQ(report.objects_ok, 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.render_text().find(report.issues[0].message),
            std::string::npos);
}

TEST(ScenarioStore, GcEvictsLeastRecentlyUsedFirst) {
  ScenarioStore store(fresh_dir("gc_lru"));
  const pipeline::Fingerprint cold = fp(1, 0);
  const pipeline::Fingerprint warm = fp(2, 0);
  const pipeline::Fingerprint hot = fp(3, 0);
  for (const auto& key : {cold, warm, hot}) {
    store.save(key, sample_artifact(static_cast<int>(key.lo)));
  }
  // Recency order (oldest first): cold, warm, hot.
  ASSERT_TRUE(store.load(warm).has_value());
  ASSERT_TRUE(store.load(hot).has_value());

  const std::uint64_t object_bytes = fs::file_size(store.object_path(cold));
  const GcReport report = store.gc(2 * object_bytes + 1);
  EXPECT_EQ(report.objects_before, 3u);
  EXPECT_EQ(report.objects_removed, 1u);
  EXPECT_EQ(report.objects_kept, 2u);
  EXPECT_FALSE(fs::exists(store.object_path(cold)));
  EXPECT_TRUE(fs::exists(store.object_path(warm)));
  EXPECT_TRUE(fs::exists(store.object_path(hot)));

  // max_bytes == 0 empties the store.
  const GcReport empty = store.gc(0);
  EXPECT_EQ(empty.objects_kept, 0u);
  EXPECT_EQ(store.stats().objects, 0u);
}

TEST(ScenarioStore, GcRemovesCorruptObjectsUnconditionally) {
  ScenarioStore store(fresh_dir("gc_corrupt"));
  store.save(fp(1, 1), sample_artifact(1));
  store.save(fp(2, 2), sample_artifact(2));
  write_file(store.object_path(fp(1, 1)), "garbage");

  const GcReport report = store.gc(1u << 30);  // budget fits everything
  EXPECT_EQ(report.objects_removed, 1u);
  EXPECT_FALSE(fs::exists(store.object_path(fp(1, 1))));
  EXPECT_TRUE(fs::exists(store.object_path(fp(2, 2))));
  EXPECT_TRUE(store.verify().clean());
}

TEST(ScenarioStore, StaleTmpFilesAreSweptOnOpen) {
  const std::string dir = fresh_dir("tmp_sweep");
  { ScenarioStore store(dir); }  // create the tree
  const std::string stale = dir + "/tmp/tmp.12345.0";
  const std::string young = dir + "/tmp/tmp.12345.1";
  write_file(stale, "orphan of a crashed publication");
  write_file(young, "a live writer mid-rename");
  // Backdate one file past the sweep horizon; the other stays young.
  fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(24));

  // A fresh open sweeps the stale orphan but leaves the young file for
  // its (possibly live) writer.
  ScenarioStore store(dir);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(young));

  // The explicit entry point with a zero horizon clears the rest.
  EXPECT_EQ(ScenarioStore::sweep_stale_tmp(dir, std::chrono::seconds(0)), 1u);
  EXPECT_FALSE(fs::exists(young));

  // Sweeping a store with no tmp directory at all is a quiet no-op.
  fs::remove_all(dir + "/tmp");
  EXPECT_EQ(ScenarioStore::sweep_stale_tmp(dir, std::chrono::seconds(0)), 0u);
}

// Replaces `<root>/tmp` with a regular file, so no publication (and no
// other write through tmp/) can succeed.
void make_tmp_unwritable(const std::string& root) {
  fs::remove_all(root + "/tmp");
  write_file(root + "/tmp", "not a directory");
  ASSERT_TRUE(fs::is_regular_file(root + "/tmp"));
}

TEST(ScenarioStore, HitsAndStatsNeedNoWritableStore) {
  // Reads write nothing that can fail: a full disk or a read-only tmp/
  // must not turn a warm hit into an error.
  const std::string dir = fresh_dir("readonly_tmp");
  ScenarioStore store(dir);
  const pipeline::Fingerprint artifact = fp(1, 10);
  const pipeline::Fingerprint lint = fp(2, 20);
  const pipeline::Fingerprint scenario = fp(3, 30);
  store.save(artifact, sample_artifact(4));
  store.save_lint(lint, one_diagnostic_report("held"));
  store.save_report(scenario, "{\"report\":1}");
  make_tmp_unwritable(dir);

  std::optional<ScenarioArtifact> loaded;
  ASSERT_NO_THROW(loaded = store.load(artifact));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->makespan, sample_artifact(4).makespan);
  std::optional<lint::Report> loaded_lint;
  ASSERT_NO_THROW(loaded_lint = store.load_lint(lint));
  ASSERT_TRUE(loaded_lint.has_value());
  EXPECT_EQ(loaded_lint->render_json(),
            one_diagnostic_report("held").render_json());
  std::optional<std::string> loaded_report;
  ASSERT_NO_THROW(loaded_report = store.load_report(scenario));
  EXPECT_EQ(loaded_report, std::optional<std::string>("{\"report\":1}"));
  EXPECT_EQ(store.hits(), 3u);

  StoreStats stats;
  ASSERT_NO_THROW(stats = store.stats());
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_TRUE(store.verify().clean());
  // A publication still reports its failure.
  EXPECT_THROW(store.save(fp(4, 40), sample_artifact(5)), Error);
}

TEST(ScenarioStore, TreeHoldsOnlyObjectsAndTmp) {
  // The object tree is the whole store: saves, loads, stats and gc leave
  // nothing else at the root (no index, no lock file).
  const std::string dir = fresh_dir("tree_only");
  ScenarioStore store(dir);
  for (std::uint64_t i = 0; i < 4; ++i) {
    store.save(fp(i, 7), sample_artifact(static_cast<int>(i)));
  }
  store.save_report(fp(9, 7), "{}");
  ASSERT_TRUE(store.load(fp(1, 7)).has_value());
  ASSERT_TRUE(store.load_report(fp(9, 7)).has_value());
  EXPECT_EQ(store.stats().objects, 5u);
  EXPECT_TRUE(store.verify().clean());
  store.gc(1u << 30, 3);
  EXPECT_EQ(store.stats().objects, 3u);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"objects", "tmp"}));
  EXPECT_TRUE(fs::is_empty(dir + "/tmp"));
}

TEST(ScenarioStore, GcBreaksRecencyTiesByFingerprint) {
  // Equal mtimes (coarse kernel stamps, or a copied store) must not make
  // eviction depend on directory order.
  ScenarioStore store(fresh_dir("gc_ties"));
  const std::vector<pipeline::Fingerprint> keys = {fp(5, 2), fp(9, 1),
                                                   fp(1, 2), fp(3, 1)};
  const auto stamp = fs::file_time_type::clock::now();
  for (const pipeline::Fingerprint& key : keys) {
    store.save(key, sample_artifact(1));
    fs::last_write_time(store.object_path(key), stamp);
  }
  // Ascending (hi, lo): (1,3) (1,9) (2,1) (2,5) — the first two go.
  const GcReport report = store.gc(1u << 30, 2);
  EXPECT_EQ(report.objects_removed, 2u);
  EXPECT_FALSE(fs::exists(store.object_path(fp(3, 1))));
  EXPECT_FALSE(fs::exists(store.object_path(fp(9, 1))));
  EXPECT_TRUE(fs::exists(store.object_path(fp(1, 2))));
  EXPECT_TRUE(fs::exists(store.object_path(fp(5, 2))));
}

// --- Study integration ------------------------------------------------------

// The acceptance golden test: a cold Study populates the disk tier; a
// fresh warm Study over the same scenarios replays nothing and reproduces
// every makespan bit-identically.
TEST(StudyDiskTier, WarmRunIsAllDiskHitsAndBitIdentical) {
  const std::string dir = fresh_dir("golden");
  const trace::Trace t = ring_trace(4, 3);
  std::vector<pipeline::ReplayContext> contexts;
  const pipeline::ReplayContext base(t, ring_platform(4));
  for (const double bw : {50.0, 100.0, 250.0, 500.0, 1000.0}) {
    contexts.push_back(base.with_bandwidth(bw));
  }

  std::vector<double> cold_makespans;
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    options.record_scenarios = true;
    pipeline::Study cold(options);
    ASSERT_NE(cold.store(), nullptr);
    for (const auto& context : contexts) {
      cold_makespans.push_back(cold.makespan(context, "sweep"));
    }
    EXPECT_EQ(cold.cache_misses(), contexts.size());
    EXPECT_EQ(cold.disk_hits(), 0u);
    for (const auto& record : cold.scenarios()) {
      EXPECT_EQ(record.cache_tier, pipeline::CacheTier::kMiss);
    }
  }

  pipeline::StudyOptions options;
  options.cache_dir = dir;
  options.record_scenarios = true;
  pipeline::Study warm(options);
  std::vector<double> warm_makespans;
  for (const auto& context : contexts) {
    warm_makespans.push_back(warm.makespan(context, "sweep"));
  }
  EXPECT_EQ(warm.cache_misses(), 0u);
  EXPECT_EQ(warm.disk_hits(), contexts.size());
  const std::vector<pipeline::ScenarioRecord> records = warm.scenarios();
  ASSERT_EQ(records.size(), contexts.size());
  for (const auto& record : records) {
    EXPECT_EQ(record.cache_tier, pipeline::CacheTier::kDisk);
    EXPECT_TRUE(record.cache_hit);
  }
  ASSERT_EQ(warm_makespans.size(), cold_makespans.size());
  for (std::size_t i = 0; i < cold_makespans.size(); ++i) {
    EXPECT_EQ(warm_makespans[i], cold_makespans[i]) << "scenario " << i;
  }
}

TEST(StudyDiskTier, WarmRunNeedsNoWritableStore) {
  // A warm sweep over a store it cannot write (full disk, read-only tmp/)
  // is still all disk hits with the cold run's makespans.
  const std::string dir = fresh_dir("warm_readonly");
  const trace::Trace t = ring_trace(4, 2);
  const pipeline::ReplayContext base(t, ring_platform(4));
  std::vector<pipeline::ReplayContext> contexts;
  for (const double bw : {100.0, 400.0}) {
    contexts.push_back(base.with_bandwidth(bw));
  }
  std::vector<double> cold_makespans;
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    pipeline::Study cold(options);
    for (const auto& context : contexts) {
      cold_makespans.push_back(cold.makespan(context));
    }
  }
  make_tmp_unwritable(dir);

  pipeline::StudyOptions options;
  options.cache_dir = dir;
  pipeline::Study warm(options);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    EXPECT_EQ(warm.makespan(contexts[i]), cold_makespans[i]) << i;
  }
  EXPECT_EQ(warm.disk_hits(), contexts.size());
  EXPECT_EQ(warm.cache_misses(), 0u);
}

// The disk tier is the caller's choice alone: an exported $OSIM_CACHE_DIR
// neither opens nor creates a store.
TEST(StudyDiskTier, NoCacheDirMeansNoStore) {
  const std::string dir = fresh_dir("environment");
  setenv("OSIM_CACHE_DIR", dir.c_str(), 1);
  pipeline::Study study;
  EXPECT_EQ(study.store(), nullptr);
  study.makespan(pipeline::ReplayContext(ring_trace(2, 1), ring_platform(2)));
  EXPECT_EQ(study.disk_hits(), 0u);
  EXPECT_FALSE(fs::exists(dir));
  unsetenv("OSIM_CACHE_DIR");
}

TEST(StudyDiskTier, MemoryTierIsPreferredWithinAStudy) {
  pipeline::StudyOptions options;
  options.cache_dir = fresh_dir("tiers");
  pipeline::Study study(options);
  const pipeline::ReplayContext context(ring_trace(2, 2), ring_platform(2));
  const double first = study.makespan(context);
  const double second = study.makespan(context);
  EXPECT_EQ(first, second);
  EXPECT_EQ(study.cache_hits(), 1u);   // memory tier answered the repeat
  EXPECT_EQ(study.disk_hits(), 0u);    // disk never consulted for it
}

TEST(StudyDiskTier, CorruptStoreDegradesToColdRun) {
  const std::string dir = fresh_dir("degrade");
  const pipeline::ReplayContext context(ring_trace(2, 2), ring_platform(2));
  double cold = 0.0;
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    pipeline::Study study(options);
    cold = study.makespan(context);
  }
  // Flip a bit in every stored object: the warm run must silently replay.
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == "index.osim" ||
        entry.path().filename() == "lock") {
      continue;
    }
    std::string bytes = read_file(entry.path().string());
    bytes[bytes.size() / 3] ^= 0x40;
    write_file(entry.path().string(), bytes);
  }
  pipeline::StudyOptions options;
  options.cache_dir = dir;
  pipeline::Study study(options);
  EXPECT_EQ(study.makespan(context), cold);
  EXPECT_EQ(study.disk_hits(), 0u);
  EXPECT_EQ(study.cache_misses(), 1u);
}

TEST(StudyDiskTier, ReportCarriesTierAndSortedScenarios) {
  const std::string dir = fresh_dir("report");
  const trace::Trace t = ring_trace(2, 2);
  const pipeline::ReplayContext base(t, ring_platform(2));
  {
    pipeline::StudyOptions options;
    options.cache_dir = dir;
    pipeline::Study cold(options);
    cold.makespan(base.with_bandwidth(100.0));
    cold.makespan(base.with_bandwidth(200.0));
  }
  pipeline::StudyOptions options;
  options.cache_dir = dir;
  options.record_scenarios = true;
  pipeline::Study warm(options);
  // Evaluate in anti-alphabetical label order; the report must sort.
  warm.makespan(base.with_bandwidth(200.0), "zeta");
  warm.makespan(base.with_bandwidth(100.0), "alpha");

  const std::string json = pipeline::study_report_json(warm);
  EXPECT_NE(json.find("\"disk_hits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\":\"disk\""), std::string::npos) << json;
  const std::size_t alpha = json.find("\"alpha\"");
  const std::size_t zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
}

}  // namespace
}  // namespace osim::store
