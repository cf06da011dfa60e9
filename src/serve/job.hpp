// The scenario: one trace file replayed on one platform under one set of
// replay options, the unit the paper's method sweeps and the unit the
// store, the service tickets and `osim_inspect --fingerprint` address.
//
// ScenarioSpec IS the scenario flag surface of the command-line tools:
// osim_replay, osim_inspect and osim_client register its flags with
// register_flags(), and every one of them (and the service worker) lowers
// it through platform_for() and options_for(). There is no second list of
// defaults, help texts or range checks to keep in step.
//
// Byte-identity is the contract of the service. A report fetched from it
// must be bit-for-bit the document `osim_replay --report` writes for the
// same trace and flags (scripts/serve_test.sh cmp's the two); both run the
// same lowering, pipeline::run_scenario and pipeline::run_report_json.
// The controller's fingerprints derive from the same spec, so a ticket
// addresses the report of the report-level scenario (collect_metrics on),
// with the report and lint schema versions folded in;
// `osim_inspect --fingerprint` addresses the summary-level replay that
// `osim_replay --cache-dir` stores, which is a different scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dimemas/platform.hpp"
#include "dimemas/replay.hpp"
#include "pipeline/fingerprint.hpp"
#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim::serve {

/// One scenario, by value: the trace file plus the platform and replay
/// option flags, with their defaults.
struct ScenarioSpec {
  std::string trace_path;
  double bandwidth = 250.0;                   // --bandwidth, MB/s
  double latency = 4.0;                       // --latency, us
  std::int64_t buses = 0;                     // --buses (0 = unlimited)
  std::int64_t ports = 1;                     // --ports
  std::int64_t eager = 16 * 1024;             // --eager, bytes
  std::string collectives = "binomial-tree";  // --collectives
  std::string fault_spec;                     // --faults ('' = none)
  std::string progress_spec;                  // --progress ('' = offload)

  /// Registers --bandwidth --latency --buses --ports --eager --collectives
  /// --faults --progress onto this spec's fields and returns those names
  /// (without dashes), so a tool can tell whether any was given. The trace
  /// flag stays with each tool, whose help text for it differs.
  std::vector<std::string> register_flags(Flags& flags);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Wire body of a spec (common/bytes.hpp fields); shared by the client
/// RPC messages and the controller->worker job frames.
void encode_spec(bytes::Writer& out, const ScenarioSpec& spec);
/// Strict decode via a bytes::Reader the caller owns (so specs can embed
/// in larger messages); leaves the reader poisoned on malformed input.
ScenarioSpec decode_spec(bytes::Reader& reader);

/// The platform `spec` describes for a trace of `num_ranks` ranks. Throws
/// osim::UsageError on an out-of-range value (Platform::from_flags).
dimemas::Platform platform_for(const ScenarioSpec& spec,
                               std::int32_t num_ranks);

/// The tools' `--platform` branch: the platform file at `platform_path`
/// when it is non-empty (osim::Error when a value breaks its field's rule,
/// the rules the flags obey, or when it has fewer than `num_ranks`
/// nodes; the network flags are then not consulted — see
/// reject_network_flags_with_platform), else platform_for(spec, num_ranks).
dimemas::Platform platform_for(const ScenarioSpec& spec,
                               std::int32_t num_ranks,
                               const std::string& platform_path);

/// The tools' rule for `--platform`: the file sets the whole network, so
/// a network flag (--bandwidth --latency --buses --ports --eager) that
/// `flags` parsed next to a non-empty `platform_path` would be ignored.
/// Throws osim::UsageError naming both flags instead, whatever its value.
void reject_network_flags_with_platform(const Flags& flags,
                                        const std::string& platform_path);

/// The replay options `spec` describes, with collect_metrics on (the
/// service always produces the full report; the tools reset it to what
/// they record). Throws osim::UsageError on an unknown collectives/faults/
/// progress spelling — callers map that to kBadRequest before any replay
/// happens.
dimemas::ReplayOptions options_for(const ScenarioSpec& spec);

/// What the controller needs to know about a trace file to fingerprint
/// and admission-check jobs against it without re-reading the file per
/// request.
struct TraceInfo {
  pipeline::Fingerprint fingerprint;  // content fingerprint of the trace
  std::int32_t num_ranks = 0;
  std::uint64_t file_bytes = 0;  // on-disk size (admission accounting)
};

/// Reads and fingerprints `path` (either trace format). Throws osim::Error
/// when the file is unreadable or malformed.
TraceInfo probe_trace(const std::string& path);

/// The service ticket of `spec` against a trace already probed: the
/// scenario fingerprint combined_fingerprint(trace, platform,
/// options_for(spec)) — the one a ReplayContext built from the same inputs
/// carries, report-level (collect_metrics on) — folded with
/// pipeline::kReportVersion, lint::kLintReportVersion and
/// pipeline::kLintAnalysisVersion. It is also the key of the stored report
/// (ScenarioStore::save_report/load_report), so a report rendered by an
/// older format or lint analysis is never served after a version bump: its
/// ticket, and so its store object, is a different one.
pipeline::Fingerprint spec_fingerprint(const ScenarioSpec& spec,
                                       const TraceInfo& trace);

/// Outcome of one job, as the worker reports it.
struct JobOutcome {
  bool ok = false;
  std::string report_json;  // when ok
  std::string error;        // when !ok
};

/// Runs one scenario to its JSON run report (pipeline::run_report_json,
/// as osim_replay --report does); a service worker calls it once per job. `store`, when non-null, serves and fills
/// the lint cache. Never throws: failures come back as JobOutcome::error.
/// Crash point "serve.worker.job" fires at entry (worker-death injection
/// for the retry tests).
JobOutcome run_job(const ScenarioSpec& spec, store::ScenarioStore* store);

/// Same, against a trace the caller has already read (run_job reads
/// spec.trace_path, then calls this).
JobOutcome run_job_on_trace(const ScenarioSpec& spec,
                            const std::shared_ptr<const trace::Trace>& trace,
                            store::ScenarioStore* store);

// --- controller <-> worker frames -------------------------------------------
//
// The worker socket speaks the same u32-length framing as the client
// protocol but its own two-message vocabulary; both ends are inside this
// process tree, yet decoding stays strict — a worker is a crash domain,
// not a trust domain.

struct JobRequest {
  pipeline::Fingerprint ticket;
  ScenarioSpec spec;
  friend bool operator==(const JobRequest&, const JobRequest&) = default;
};

struct JobResult {
  pipeline::Fingerprint ticket;
  bool ok = false;
  std::string report_json;
  std::string error;
  friend bool operator==(const JobResult&, const JobResult&) = default;
};

std::string encode_job_request(const JobRequest& request);
std::optional<JobRequest> decode_job_request(std::string_view payload);
std::string encode_job_result(const JobResult& result);
std::optional<JobResult> decode_job_result(std::string_view payload);

}  // namespace osim::serve
