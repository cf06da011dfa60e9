#include "store/format.hpp"

#include <utility>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "metrics/replay_metrics.hpp"

namespace osim::store {

namespace {

/// Upper bound on stored rank counts: a flipped length byte must fail the
/// decode instead of provoking a multi-gigabyte allocation before the CRC
/// verdict is even consulted. (The CRC is checked first regardless; this
/// guards the decoder against future reorderings.)
constexpr std::uint64_t kMaxRanks = 1u << 20;

/// Same role for stored string lengths and diagnostic counts.
constexpr std::uint64_t kMaxStringBytes = 1u << 24;
constexpr std::uint64_t kMaxDiagnostics = 1u << 22;

/// magic + u32 version + fingerprint + u64 payload size.
constexpr std::size_t kEnvelopeHeader = 8 + 4 + 8 + 8 + 8;

// --- the envelope shared by all three object kinds --------------------------

std::string seal(std::string_view magic, std::uint32_t version,
                 const pipeline::Fingerprint& fp, std::string_view payload) {
  std::string out;
  out.reserve(kEnvelopeHeader + payload.size() + 4);
  bytes::Writer w(out);
  w.raw(magic);
  w.u32(version);
  pipeline::write_fingerprint(w, fp);
  w.u64(payload.size());
  w.raw(payload);
  w.u32(crc32(std::string_view(out).substr(magic.size())));
  return out;
}

struct Unsealed {
  pipeline::Fingerprint fingerprint;
  std::string_view payload;  // a view into the sealed bytes
};

std::optional<Unsealed> unseal(std::string_view object, std::string_view magic,
                             std::uint32_t version) {
  if (object.size() < kEnvelopeHeader + 4) return std::nullopt;
  if (!object.starts_with(magic)) return std::nullopt;
  // Integrity before interpretation: the CRC covers everything after the
  // magic (version, address, size, payload), so a single flipped bit
  // anywhere the footer can see is rejected here.
  const std::string_view covered =
      object.substr(magic.size(), object.size() - magic.size() - 4);
  if (bytes::load_le<std::uint32_t>(object.data() + object.size() - 4) !=
      crc32(covered)) {
    return std::nullopt;
  }
  bytes::Reader in(covered);
  if (in.u32() != version) return std::nullopt;  // skew = miss
  Unsealed unsealed;
  unsealed.fingerprint = pipeline::read_fingerprint(in);
  const std::uint64_t declared_size = in.u64();
  if (declared_size != in.remaining()) return std::nullopt;
  unsealed.payload = in.raw(in.remaining());
  return unsealed;
}

// --- payloads ----------------------------------------------------------------

void write_rank_stats(bytes::Writer& out, const dimemas::RankStats& s) {
  out.f64(s.compute_s);
  out.f64(s.send_blocked_s);
  out.f64(s.recv_blocked_s);
  out.f64(s.wait_blocked_s);
  out.f64(s.finish_time);
  out.u64(s.messages_sent);
  out.u64(s.messages_received);
  out.u64(s.bytes_sent);
  out.u64(s.bytes_received);
}

dimemas::RankStats read_rank_stats(bytes::Reader& in) {
  dimemas::RankStats s;
  s.compute_s = in.f64();
  s.send_blocked_s = in.f64();
  s.recv_blocked_s = in.f64();
  s.wait_blocked_s = in.f64();
  s.finish_time = in.f64();
  s.messages_sent = in.u64();
  s.messages_received = in.u64();
  s.bytes_sent = in.u64();
  s.bytes_received = in.u64();
  return s;
}

}  // namespace

std::string encode_object(const pipeline::Fingerprint& fp,
                          const ScenarioArtifact& artifact) {
  std::string payload;
  bytes::Writer w(payload);
  w.f64(artifact.makespan);
  w.u64(artifact.des_events);
  w.f64(artifact.fault_wait_s);
  w.f64(artifact.progress_wait_s);
  faults::write_counts(w, artifact.fault_counts);
  w.u64(artifact.rank_stats.size());
  for (const dimemas::RankStats& s : artifact.rank_stats) {
    write_rank_stats(w, s);
  }
  return seal(kObjectMagic, kObjectVersion, fp, payload);
}

std::optional<DecodedObject> decode_object(std::string_view object) {
  const std::optional<Unsealed> unsealed =
      unseal(object, kObjectMagic, kObjectVersion);
  if (!unsealed.has_value()) return std::nullopt;
  DecodedObject decoded;
  decoded.fingerprint = unsealed->fingerprint;
  ScenarioArtifact& a = decoded.artifact;
  bytes::Reader in(unsealed->payload);
  a.makespan = in.f64();
  a.des_events = in.u64();
  a.fault_wait_s = in.f64();
  a.progress_wait_s = in.f64();
  a.fault_counts = faults::read_counts(in);
  const std::uint64_t rank_count = in.u64();
  if (!in.ok() || rank_count > kMaxRanks) return std::nullopt;
  a.rank_stats.resize(rank_count);
  for (dimemas::RankStats& s : a.rank_stats) s = read_rank_stats(in);
  if (!in.done()) return std::nullopt;  // short or trailing payload bytes
  return decoded;
}

ScenarioArtifact make_artifact(const dimemas::SimResult& result) {
  ScenarioArtifact artifact;
  artifact.makespan = result.makespan;
  artifact.des_events = result.des_events;
  artifact.rank_stats = result.rank_stats;
  artifact.fault_counts = result.fault_counts;
  if (result.metrics != nullptr) {
    for (const metrics::RankWaitAttribution& waits :
         result.metrics->rank_waits) {
      artifact.fault_wait_s += waits.total().fault_s;
      artifact.progress_wait_s += waits.total().progress_s;
    }
  }
  return artifact;
}

dimemas::SimResult to_sim_result(const ScenarioArtifact& artifact) {
  dimemas::SimResult result;
  result.makespan = artifact.makespan;
  result.des_events = artifact.des_events;
  result.rank_stats = artifact.rank_stats;
  result.fault_counts = artifact.fault_counts;
  return result;
}

std::string encode_lint_object(const pipeline::Fingerprint& fp,
                               const lint::Report& report) {
  std::string payload;
  bytes::Writer w(payload);
  w.u64(report.diagnostics().size());
  for (const lint::Diagnostic& d : report.diagnostics()) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.string64(d.pass);
    w.string64(d.code);
    w.i64(d.rank);
    w.i64(d.record);
    w.string64(d.message);
    w.string64(d.evidence);
  }
  return seal(kLintObjectMagic, kLintObjectVersion, fp, payload);
}

std::optional<DecodedLintObject> decode_lint_object(std::string_view object) {
  const std::optional<Unsealed> unsealed =
      unseal(object, kLintObjectMagic, kLintObjectVersion);
  if (!unsealed.has_value()) return std::nullopt;
  DecodedLintObject decoded;
  decoded.fingerprint = unsealed->fingerprint;
  bytes::Reader in(unsealed->payload);
  const std::uint64_t count = in.u64();
  if (count > kMaxDiagnostics) return std::nullopt;
  for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
    lint::Diagnostic d;
    const std::uint8_t severity = in.u8();
    if (severity > 2) return std::nullopt;
    d.severity = static_cast<lint::Severity>(severity);
    d.pass = in.string64(kMaxStringBytes);
    d.code = in.string64(kMaxStringBytes);
    d.rank = static_cast<trace::Rank>(in.i64());
    d.record = static_cast<std::ptrdiff_t>(in.i64());
    d.message = in.string64(kMaxStringBytes);
    d.evidence = in.string64(kMaxStringBytes);
    decoded.report.add(std::move(d));
  }
  if (!in.done()) return std::nullopt;  // short or trailing payload bytes
  return decoded;
}

pipeline::Fingerprint report_address(const pipeline::Fingerprint& scenario) {
  // Folded over a domain tag so a report address can never equal the
  // scenario fingerprint it derives from.
  pipeline::FingerprintHasher h;
  h.u64(0x52505254);  // domain tag "RPRT"
  h.u64(scenario.lo);
  h.u64(scenario.hi);
  h.u64(kReportObjectVersion);
  return h.value();
}

std::string encode_report_object(const pipeline::Fingerprint& fp,
                                 std::string_view report_json) {
  return seal(kReportObjectMagic, kReportObjectVersion, fp, report_json);
}

std::optional<DecodedReportObject> decode_report_object(
    std::string_view object) {
  const std::optional<Unsealed> unsealed =
      unseal(object, kReportObjectMagic, kReportObjectVersion);
  if (!unsealed.has_value()) return std::nullopt;
  return DecodedReportObject{unsealed->fingerprint,
                             std::string(unsealed->payload)};
}

std::optional<pipeline::Fingerprint> probe_object(std::string_view object) {
  const auto address = [](const auto& decoded) {
    return decoded.has_value()
               ? std::optional<pipeline::Fingerprint>(decoded->fingerprint)
               : std::nullopt;
  };
  if (object.starts_with(kLintObjectMagic)) {
    return address(decode_lint_object(object));
  }
  if (object.starts_with(kReportObjectMagic)) {
    return address(decode_report_object(object));
  }
  return address(decode_object(object));
}

}  // namespace osim::store
