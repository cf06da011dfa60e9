// Byte-level golden for every binary format the repository persists or
// sends: the three store object kinds (OSIMSTO1, OSIMLNT1, OSIMRPT1), the
// OSIMRPC1 handshake plus one frame of every message type, and OSIMBT01
// binary traces.
//
// tests/golden/codec_store/ is a complete store directory (its index.osim
// is the LRU index and journals/ the study journal older versions kept;
// the store now ignores both),
// tests/golden/rpc_frames.hex one hex-encoded frame per line and
// tests/golden/trace_codec.btrace one binary trace (with its text
// rendering, trace_codec.trace). All were written by trees that predate
// the shared byte codec (common/bytes.hpp) or its use for that format;
// every artifact must decode to the values built below and re-encode to
// exactly the committed bytes. A format change that moves a single byte
// fails here, before it can strand a user's cache or trace files.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/fingerprint.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"

namespace osim {
namespace {

namespace fs = std::filesystem;

const std::string kGoldenDir = OSIM_GOLDEN_DIR;
const std::string kStoreDir = kGoldenDir + "/codec_store";
const std::string kFramesFile = kGoldenDir + "/rpc_frames.hex";
const std::string kTraceFile = kGoldenDir + "/trace_codec.btrace";
const std::string kTraceTextFile = kGoldenDir + "/trace_codec.trace";

// --- pinned values ----------------------------------------------------------

const pipeline::Fingerprint kArtifactKey{0x0123456789abcdefULL,
                                         0xfedcba9876543210ULL};
const pipeline::Fingerprint kLintKey{0x1111222233334444ULL,
                                     0x5555666677778888ULL};
const pipeline::Fingerprint kReportScenario{0x0f1e2d3c4b5a6978ULL,
                                            0x8796a5b4c3d2e1f0ULL};

store::ScenarioArtifact golden_artifact() {
  store::ScenarioArtifact a;
  a.makespan = 1.0 / 3.0;
  a.des_events = 123456789;
  a.fault_wait_s = 0.015625;
  a.progress_wait_s = 2.0 / 7.0;
  a.fault_counts.enabled = true;
  a.fault_counts.seed = 0xdeadbeefcafef00dULL;
  a.fault_counts.messages_dropped = 3;
  a.fault_counts.retransmits = 5;
  a.fault_counts.handshake_reissues = 7;
  a.fault_counts.hard_stalls = 11;
  a.fault_counts.degraded_transfers = 13;
  a.fault_counts.perturbed_bursts = 17;
  a.fault_counts.straggled_bursts = 19;
  a.fault_counts.injected_delay_s = 0.1;
  a.fault_counts.injected_compute_s = 1e-9;
  for (int r = 0; r < 4; ++r) {
    dimemas::RankStats s;
    s.compute_s = 0.5 + r;
    s.send_blocked_s = 0.1 * r;
    s.recv_blocked_s = 0.2 * r;
    s.wait_blocked_s = 0.3 * r;
    s.finish_time = 10.0 + r / 3.0;
    s.messages_sent = 100u + static_cast<std::uint64_t>(r);
    s.messages_received = 200u + static_cast<std::uint64_t>(r);
    s.bytes_sent = (1ULL << 40) + static_cast<std::uint64_t>(r);
    s.bytes_received = (1ULL << 33) * static_cast<std::uint64_t>(r);
    a.rank_stats.push_back(s);
  }
  return a;
}

lint::Report golden_lint_report() {
  lint::Report report;
  lint::Diagnostic race;
  race.severity = lint::Severity::kWarning;
  race.pass = "races";
  race.code = "wildcard-race";
  race.rank = 2;
  race.record = 14;
  race.message = "wildcard receive may match either of two sends";
  race.evidence = "recv [3,1,4] send0 [1,5,9] send1 [2,6,5]";
  report.add(race);
  lint::Diagnostic whole;
  whole.severity = lint::Severity::kError;
  whole.pass = "deadlock";
  whole.code = "";
  whole.rank = -1;
  whole.record = lint::kNoRecord;
  whole.message = "ranks 0,1 are stuck";
  whole.evidence = "stuck {0,1}";
  report.add(whole);
  lint::Diagnostic advisory;
  advisory.severity = lint::Severity::kInfo;
  advisory.pass = "overlap";
  advisory.code = "zero-window";
  advisory.rank = 0;
  advisory.record = 0;
  advisory.message = "no compute between post and wait";
  report.add(advisory);
  return report;
}

std::string golden_report_json() {
  return "{\"schema\":\"osim.run_report\",\"version\":1,"
         "\"app\":\"golden\",\"makespan\":0.3333333333333333}\n";
}

/// Every record kind, both send flags (a blocking synchronous send and an
/// immediate synchronous one), a wildcard receive, a two-request wait, a
/// collective rooted at rank 2, multi-byte varints of both signs and a
/// non-empty app name.
trace::Trace golden_trace() {
  using namespace trace;
  TraceBuilder b(3, 2300.5, "golden-app");
  b.compute(0, 987654321)
      .send(0, 1, 7, 100)
      .isend(0, 2, 8, std::uint64_t{1} << 40, 11)
      .irecv(0, kAnyRank, kAnyTag, 64, 12)
      .wait(0, {11, 12})
      .global(0, CollectiveKind::kBcast, 2, 4096, 0)
      .compute(0, 1);
  b.recv(1, 0, 7, 100)
      .isend(1, 0, 1'000'000'000'000, 64, 0)
      .wait(1, {0})
      .global(1, CollectiveKind::kBcast, 2, 4096, 0);
  b.irecv(2, 0, 8, std::uint64_t{1} << 40, 4)
      .compute(2, 300)
      .wait(2, {4})
      .global(2, CollectiveKind::kBcast, 2, 4096, 0);
  Trace t = std::move(b).build();
  std::get<Send>(t.ranks[0][1]).synchronous = true;
  std::get<Send>(t.ranks[1][1]).synchronous = true;
  return t;
}

serve::ScenarioSpec golden_spec() {
  serve::ScenarioSpec spec;
  spec.trace_path = "/data/cg.original.trace";
  spec.bandwidth = 125.5;
  spec.latency = 4.25;
  spec.buses = 2;
  spec.ports = -1;
  spec.eager = 65536;
  spec.collectives = "linear";
  spec.fault_spec = "seed=7;loss=0.02";
  spec.progress_spec = "thread";
  return spec;
}

std::vector<std::pair<std::string, serve::ClientMessage>> golden_client() {
  using namespace serve;
  SubmitStudy study;
  study.base = golden_spec();
  study.bandwidths = {125.0, 250.0, 1e3};
  return {
      {"submit-scenario", ClientMessage(SubmitScenario{golden_spec()})},
      {"submit-study", ClientMessage(study)},
      {"poll-status", ClientMessage(PollStatus{kArtifactKey, true})},
      {"fetch-report", ClientMessage(FetchReport{kReportScenario})},
      {"cancel", ClientMessage(Cancel{kLintKey})},
      {"server-stats", ClientMessage(ServerStats{})},
      {"shutdown", ClientMessage(Shutdown{})},
  };
}

std::vector<std::pair<std::string, serve::ServerMessage>> golden_server() {
  using namespace serve;
  Submitted submitted;
  submitted.tickets = {{kArtifactKey, SubmitDisposition::kFresh},
                       {kLintKey, SubmitDisposition::kShared},
                       {kReportScenario, SubmitDisposition::kServed}};
  return {
      {"submitted", ServerMessage(submitted)},
      {"status", ServerMessage(StatusReply{kArtifactKey, JobState::kFailed, 2,
                                           "worker died"})},
      {"report", ServerMessage(ReportReply{kReportScenario,
                                           golden_report_json()})},
      {"stats", ServerMessage(StatsReply{"{\"schema\":\"osim.serve_stats\"}"})},
      {"ok", ServerMessage(OkReply{})},
      {"error",
       ServerMessage(ErrorReply{RpcErrorCode::kBusy, "queue is full"})},
  };
}

serve::JobRequest golden_job_request() {
  return serve::JobRequest{kArtifactKey, golden_spec()};
}

serve::JobResult golden_job_result() {
  return serve::JobResult{kReportScenario, true, golden_report_json(), ""};
}

// --- helpers ----------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string framed(std::string_view payload) {
  std::string out;
  serve::append_frame(out, payload);
  return out;
}

/// Every frame line of rpc_frames.hex as name -> frame bytes.
std::map<std::string, std::string> read_frames() {
  std::map<std::string, std::string> frames;
  std::istringstream in(read_file(kFramesFile));
  std::string name;
  std::string hex;
  while (in >> name >> hex) frames[name] = from_hex(hex);
  return frames;
}

/// Opening a store creates tmp/ and a lock file, so every test works on
/// its own copy of the committed directory.
std::string copy_of_golden_store(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/osim_codec_golden_" + name;
  fs::remove_all(dir);
  fs::copy(kStoreDir, dir, fs::copy_options::recursive);
  return dir;
}

/// Payload of a single-frame stream, via the real incremental reader.
std::optional<std::string> unframe(const std::string& frame) {
  serve::FrameReader reader;
  reader.feed(frame);
  std::optional<std::string> payload = reader.next();
  if (reader.error() || reader.buffered() != 0) return std::nullopt;
  return payload;
}

// --- store objects ----------------------------------------------------------

TEST(CodecGolden, ScenarioObjectDecodesAndReencodes) {
  const std::string root = copy_of_golden_store("scenario");
  store::ScenarioStore store(root);
  const std::string bytes = read_file(store.object_path(kArtifactKey));
  ASSERT_FALSE(bytes.empty());
  const auto decoded = store::decode_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, kArtifactKey);
  EXPECT_EQ(decoded->artifact, golden_artifact());
  EXPECT_EQ(store::encode_object(decoded->fingerprint, decoded->artifact),
            bytes);
  EXPECT_EQ(store::probe_object(bytes), kArtifactKey);
  const std::optional<store::ScenarioArtifact> loaded =
      store.load(kArtifactKey);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, golden_artifact());
}

TEST(CodecGolden, LintObjectDecodesAndReencodes) {
  const std::string root = copy_of_golden_store("lint");
  store::ScenarioStore store(root);
  const std::string bytes = read_file(store.object_path(kLintKey));
  ASSERT_FALSE(bytes.empty());
  const auto decoded = store::decode_lint_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, kLintKey);
  const lint::Report expected = golden_lint_report();
  ASSERT_EQ(decoded->report.diagnostics().size(),
            expected.diagnostics().size());
  for (std::size_t i = 0; i < expected.diagnostics().size(); ++i) {
    const lint::Diagnostic& got = decoded->report.diagnostics()[i];
    const lint::Diagnostic& want = expected.diagnostics()[i];
    EXPECT_EQ(got.severity, want.severity) << i;
    EXPECT_EQ(got.pass, want.pass) << i;
    EXPECT_EQ(got.code, want.code) << i;
    EXPECT_EQ(got.rank, want.rank) << i;
    EXPECT_EQ(got.record, want.record) << i;
    EXPECT_EQ(got.message, want.message) << i;
    EXPECT_EQ(got.evidence, want.evidence) << i;
  }
  EXPECT_EQ(store::encode_lint_object(decoded->fingerprint, decoded->report),
            bytes);
  EXPECT_EQ(store::probe_object(bytes), kLintKey);
  const std::optional<lint::Report> loaded = store.load_lint(kLintKey);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->render_json(), expected.render_json());
}

TEST(CodecGolden, ReportObjectDecodesAndReencodes) {
  const std::string root = copy_of_golden_store("report");
  store::ScenarioStore store(root);
  const pipeline::Fingerprint address = store::report_address(kReportScenario);
  const std::string bytes = read_file(store.object_path(address));
  ASSERT_FALSE(bytes.empty());
  const auto decoded = store::decode_report_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->fingerprint, address);
  EXPECT_EQ(decoded->report_json, golden_report_json());
  EXPECT_EQ(store::encode_report_object(address, decoded->report_json), bytes);
  EXPECT_EQ(store::probe_object(bytes), address);
  EXPECT_EQ(store.load_report(kReportScenario), golden_report_json());
}

TEST(CodecGolden, StoreVerifiesClean) {
  const std::string root = copy_of_golden_store("verify");
  store::ScenarioStore store(root);
  const store::VerifyReport report = store.verify();
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(report.objects_checked, 3u);
  EXPECT_EQ(report.objects_ok, 3u);
}

// --- legacy index -----------------------------------------------------------

TEST(CodecGolden, LegacyIndexedStoreServesItsObjects) {
  // A store written by a version that kept an LRU index (index.osim) is
  // read through its object tree alone: every object counts and loads,
  // and the old index is never read, rewritten or required.
  const std::string root = copy_of_golden_store("legacy_index");
  const std::string golden_index = read_file(kStoreDir + "/index.osim");
  ASSERT_FALSE(golden_index.empty());
  store::ScenarioStore store(root);
  const auto expect_served = [&store]() {
    const store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.objects, 3u);
    EXPECT_EQ(stats.bytes, 962u);  // 449 + 387 + 126, the three objects
    EXPECT_TRUE(store.load(kArtifactKey).has_value());
    EXPECT_TRUE(store.load_lint(kLintKey).has_value());
    EXPECT_EQ(store.load_report(kReportScenario), golden_report_json());
    const store::VerifyReport report = store.verify();
    EXPECT_TRUE(report.clean()) << report.render_text();
    EXPECT_EQ(report.objects_ok, 3u);
  };
  expect_served();
  EXPECT_EQ(store.gc(1u << 20).objects_kept, 3u);
  EXPECT_EQ(read_file(root + "/index.osim"), golden_index);
  EXPECT_FALSE(fs::exists(root + "/lock"));

  // Without the old index nothing changes: objects are not "unindexed".
  fs::remove(root + "/index.osim");
  expect_served();
}

// --- legacy journal ---------------------------------------------------------

TEST(CodecGolden, LegacyJournalIsInert) {
  // A store written by a version that kept study journals (journals/,
  // format OSIMJRN1) serves its objects as before; the journal file is
  // never read, rewritten or removed by any store operation.
  const std::string root = copy_of_golden_store("legacy_journal");
  const std::string journal =
      "/journals/86eb408b45f4f3dd99a4fdaf01704aae.osimjrn";
  const std::string golden = read_file(kStoreDir + journal);
  ASSERT_FALSE(golden.empty());
  store::ScenarioStore store(root);
  EXPECT_TRUE(store.load(kArtifactKey).has_value());
  EXPECT_TRUE(store.load_lint(kLintKey).has_value());
  EXPECT_EQ(store.load_report(kReportScenario), golden_report_json());
  EXPECT_EQ(store.stats().objects, 3u);
  const store::VerifyReport report = store.verify();
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(store.gc(1u << 20).objects_kept, 3u);
  EXPECT_EQ(read_file(root + journal), golden);
  // Even a gc that empties the store leaves the journal alone.
  EXPECT_EQ(store.gc(0).objects_kept, 0u);
  EXPECT_EQ(read_file(root + journal), golden);
}

// --- RPC --------------------------------------------------------------------

TEST(CodecGolden, HandshakeMatches) {
  const std::map<std::string, std::string> frames = read_frames();
  ASSERT_EQ(frames.count("handshake"), 1u);
  EXPECT_TRUE(serve::check_handshake(frames.at("handshake")));
  EXPECT_EQ(serve::handshake_bytes(), frames.at("handshake"));
}

TEST(CodecGolden, ClientFramesDecodeAndReencode) {
  const std::map<std::string, std::string> frames = read_frames();
  for (const auto& [name, message] : golden_client()) {
    ASSERT_EQ(frames.count(name), 1u) << name;
    const std::string& frame = frames.at(name);
    const std::optional<std::string> payload = unframe(frame);
    ASSERT_TRUE(payload.has_value()) << name;
    const auto decoded = serve::decode_client_message(*payload);
    ASSERT_TRUE(decoded.has_value()) << name;
    EXPECT_TRUE(*decoded == message) << name;
    EXPECT_EQ(framed(serve::encode_client_message(*decoded)), frame) << name;
  }
}

TEST(CodecGolden, ServerFramesDecodeAndReencode) {
  const std::map<std::string, std::string> frames = read_frames();
  for (const auto& [name, message] : golden_server()) {
    ASSERT_EQ(frames.count(name), 1u) << name;
    const std::string& frame = frames.at(name);
    const std::optional<std::string> payload = unframe(frame);
    ASSERT_TRUE(payload.has_value()) << name;
    const auto decoded = serve::decode_server_message(*payload);
    ASSERT_TRUE(decoded.has_value()) << name;
    EXPECT_TRUE(*decoded == message) << name;
    EXPECT_EQ(framed(serve::encode_server_message(*decoded)), frame) << name;
  }
}

TEST(CodecGolden, JobFramesDecodeAndReencode) {
  const std::map<std::string, std::string> frames = read_frames();
  ASSERT_EQ(frames.count("job-request"), 1u);
  ASSERT_EQ(frames.count("job-result"), 1u);

  const std::optional<std::string> request_payload =
      unframe(frames.at("job-request"));
  ASSERT_TRUE(request_payload.has_value());
  const auto request = serve::decode_job_request(*request_payload);
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(*request == golden_job_request());
  EXPECT_EQ(framed(serve::encode_job_request(*request)),
            frames.at("job-request"));

  const std::optional<std::string> result_payload =
      unframe(frames.at("job-result"));
  ASSERT_TRUE(result_payload.has_value());
  const auto result = serve::decode_job_result(*result_payload);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result == golden_job_result());
  EXPECT_EQ(framed(serve::encode_job_result(*result)),
            frames.at("job-result"));
}

TEST(CodecGolden, BinaryTraceDecodesAndReencodes) {
  const std::string bytes = read_file(kTraceFile);
  const trace::Trace pinned = golden_trace();
  const trace::Trace decoded = trace::read_binary(bytes);
  // The text rendering covers every field but the request ids of blocking
  // records; the re-encoding below covers those.
  EXPECT_EQ(trace::write_text(decoded), read_file(kTraceTextFile));
  EXPECT_EQ(trace::write_text(decoded), trace::write_text(pinned));
  EXPECT_EQ(trace::write_binary(decoded), bytes);
  EXPECT_EQ(trace::write_binary(pinned), bytes);
  EXPECT_EQ(trace::write_binary(trace::read_any_file(kTraceFile)), bytes);
  const trace::RecoveredTrace recovered = trace::read_binary_recover(bytes);
  EXPECT_TRUE(recovered.damage.clean());
  EXPECT_EQ(recovered.damage.records_salvaged, pinned.total_records());
}

}  // namespace
}  // namespace osim
