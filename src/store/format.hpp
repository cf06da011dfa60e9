// Binary format of the scenario store's objects.
//
// Three object kinds share the store and one envelope. All fields are
// fixed-width little-endian (common/bytes.hpp):
//
//   magic (8 bytes: "OSIMSTO1", "OSIMLNT1" or "OSIMRPT1")
//   u32 format version (per kind; any other value is a miss)
//   u64 fingerprint.hi, u64 fingerprint.lo   (the content address)
//   u64 payload_bytes (P)
//   payload (P bytes, per kind — see the encode_* functions below)
//   u32 CRC-32 (IEEE, common/crc32.hpp) over every byte after the magic
//
// Decoding is strict and total: a decode_* function never throws on
// content. The CRC is checked before anything is interpreted; then a bad
// magic, version skew, a declared size that differs from the actual size,
// a truncated, overlong or out-of-range payload all come back as nullopt,
// which the store treats as a cache miss (salvage-style; see DESIGN.md
// §3.5). The embedded fingerprint lets readers detect objects that were
// renamed or cross-copied between keys, which a file-content CRC alone
// cannot see.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dimemas/result.hpp"
#include "faults/model.hpp"
#include "lint/diagnostics.hpp"
#include "pipeline/fingerprint.hpp"

namespace osim::store {

inline constexpr std::string_view kObjectMagic = "OSIMSTO1";
/// v2 appended progress_wait_s to the payload; v1 objects decode as a miss
/// (strict total decode) and are re-replayed, never misread.
inline constexpr std::uint32_t kObjectVersion = 2;

/// Second object kind sharing the store: a cached lint report, keyed by a
/// trace-derived fingerprint (pipeline/lint_cache.hpp). Same envelope as
/// replay objects, with its own magic so the two kinds can never be
/// confused for one another.
inline constexpr std::string_view kLintObjectMagic = "OSIMLNT1";
inline constexpr std::uint32_t kLintObjectVersion = 1;

/// Third object kind: a finished JSON run report, stored verbatim by the
/// analysis service (osim_serve) so a controller restart — or another
/// controller sharing the store — can answer fetch-report without
/// replaying. Keyed by report_address() (a domain-tagged derivation of the
/// service ticket, serve::spec_fingerprint, which folds in the report
/// format versions), same envelope, own magic.
inline constexpr std::string_view kReportObjectMagic = "OSIMRPT1";
inline constexpr std::uint32_t kReportObjectVersion = 1;

/// The cached result of one replay. Rich enough to reconstruct the
/// summary-level SimResult (makespan, per-rank statistics, fault counters)
/// that the benches and osim_replay's default output consume; timelines,
/// comm events and full metrics are intentionally not stored — contexts
/// that record those carry different fingerprints anyway.
struct ScenarioArtifact {
  double makespan = 0.0;
  std::uint64_t des_events = 0;
  std::vector<dimemas::RankStats> rank_stats;
  faults::Counts fault_counts;
  /// Total fault-attributed wait time across ranks; non-zero only for
  /// fault-injected contexts that collect metrics (mirrors
  /// pipeline::ScenarioRecord::fault_wait_s).
  double fault_wait_s = 0.0;
  /// Total progress-engine-attributed wait time across ranks (mirrors
  /// pipeline::ScenarioRecord::progress_wait_s).
  double progress_wait_s = 0.0;

  friend bool operator==(const ScenarioArtifact&,
                         const ScenarioArtifact&) = default;
};

/// Serializes `artifact` under content address `fp`. Payload: f64 makespan,
/// u64 des_events, f64 fault_wait_s, f64 progress_wait_s, the
/// faults::Counts codec (faults/model.hpp), u64 rank count, then per rank
/// the dimemas::RankStats fields (five f64, four u64).
std::string encode_object(const pipeline::Fingerprint& fp,
                          const ScenarioArtifact& artifact);

struct DecodedObject {
  pipeline::Fingerprint fingerprint;
  ScenarioArtifact artifact;
};

/// Strict decode; nullopt on any damage or version skew (never throws).
std::optional<DecodedObject> decode_object(std::string_view bytes);

/// Projects a SimResult down to its storable artifact (fault_wait_s is
/// summed from the metrics when the replay collected them).
ScenarioArtifact make_artifact(const dimemas::SimResult& result);

/// Inflates an artifact back into a summary-level SimResult (no timelines,
/// comms or metrics — see ScenarioArtifact).
dimemas::SimResult to_sim_result(const ScenarioArtifact& artifact);

/// Serializes a full lint report (every diagnostic, all fields) under
/// content address `fp`. Storing the diagnostics themselves — not just the
/// counts — is what makes a warm lint run render byte-identically to cold.
/// Payload: u64 count, then per diagnostic u8 severity (<= 2), u64-length
/// strings pass and code, i64 rank, i64 record, u64-length strings message
/// and evidence.
std::string encode_lint_object(const pipeline::Fingerprint& fp,
                               const lint::Report& report);

struct DecodedLintObject {
  pipeline::Fingerprint fingerprint;
  lint::Report report;
};

/// Strict decode; nullopt on any damage, version skew or a non-lint magic.
std::optional<DecodedLintObject> decode_lint_object(std::string_view bytes);

/// Storage address of a scenario's cached run report: the scenario
/// fingerprint folded with a domain tag and the report-object version, so
/// a report object can never collide with the replay artifact of the same
/// scenario (which keeps the raw fingerprint as its address).
pipeline::Fingerprint report_address(const pipeline::Fingerprint& scenario);

/// Serializes a run-report JSON document under content address `fp`
/// (callers pass report_address(scenario_fp)). The JSON bytes are stored
/// verbatim — what makes a fetched report byte-identical to the batch
/// osim_replay --report output it was computed by. The payload is the JSON
/// itself.
std::string encode_report_object(const pipeline::Fingerprint& fp,
                                 std::string_view report_json);

struct DecodedReportObject {
  pipeline::Fingerprint fingerprint;
  std::string report_json;
};

/// Strict decode; nullopt on any damage, version skew or a foreign magic.
std::optional<DecodedReportObject> decode_report_object(
    std::string_view bytes);

/// Kind-dispatching integrity probe used by verify()/gc(): decodes `bytes`
/// as whichever object kind its magic announces and returns the embedded
/// fingerprint, or nullopt when the object is corrupt under every kind.
std::optional<pipeline::Fingerprint> probe_object(std::string_view bytes);

}  // namespace osim::store
