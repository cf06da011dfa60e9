// The unit of work the analysis service schedules: one scenario spec,
// lowered to exactly the replay that `osim_replay --report` would run.
//
// Byte-identity is the contract here. A report fetched from the service
// must be bit-for-bit the document the batch tool writes for the same
// trace and flags (scripts/serve_test.sh cmp's the two), so ScenarioSpec
// carries the same fields as osim_replay's flag surface with the same
// defaults, and run_job() follows the same path: read_any_file →
// ReplayContext (validates once) → run_scenario → lint_with_cache →
// replay_report_json. Anything the controller computes (fingerprints,
// admission sizes) derives from the same spec, so the ticket a client
// holds is the fingerprint the batch tools print.
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
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim::serve {

/// One scenario, by value: the trace file plus the platform/option flags
/// of osim_replay, defaults matching that tool's flag defaults exactly.
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

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Wire body of a spec (common/bytes.hpp fields); shared by the client
/// RPC messages and the controller->worker job frames.
void encode_spec(bytes::Writer& out, const ScenarioSpec& spec);
/// Strict decode via a bytes::Reader the caller owns (so specs can embed
/// in larger messages); leaves the reader poisoned on malformed input.
ScenarioSpec decode_spec(bytes::Reader& reader);

/// The platform `spec` describes for a trace of `num_ranks` ranks —
/// field-for-field what osim_replay builds from the same flags. Throws
/// osim::UsageError on an out-of-range value (Platform::from_flags).
dimemas::Platform platform_for(const ScenarioSpec& spec,
                               std::int32_t num_ranks);

/// The replay options `spec` describes, with collect_metrics on (the
/// service always produces the full report). Throws osim::UsageError on an
/// unknown collectives/faults/progress spelling — callers map that to
/// kBadRequest before any replay happens.
dimemas::ReplayOptions options_for(const ScenarioSpec& spec);

/// What the controller needs to know about a trace file to fingerprint,
/// batch and admission-check jobs against it without re-reading the file
/// per request.
struct TraceInfo {
  pipeline::Fingerprint fingerprint;  // content fingerprint of the trace
  std::int32_t num_ranks = 0;
  std::uint64_t file_bytes = 0;  // on-disk size (admission accounting)
};

/// Reads and fingerprints `path` (either trace format). Throws osim::Error
/// when the file is unreadable or malformed.
TraceInfo probe_trace(const std::string& path);

/// The scenario fingerprint of `spec` against a trace already probed:
/// combined_fingerprint(trace, platform, options) — bit-identical to the
/// fingerprint a ReplayContext built from the same inputs carries, so
/// service tickets address the same store objects as batch runs.
pipeline::Fingerprint spec_fingerprint(const ScenarioSpec& spec,
                                       const TraceInfo& trace);

/// Outcome of one job, as the worker reports it.
struct JobOutcome {
  bool ok = false;
  std::string report_json;  // when ok
  std::string error;        // when !ok
};

/// Runs one scenario to its JSON run report, the osim_replay --report way.
/// `store`, when non-null, serves/fills the lint cache and receives the
/// replay artifact (write-behind, best effort). Never throws: failures
/// come back as JobOutcome::error. Crash point "serve.worker.job" fires at
/// entry (worker-death injection for the retry tests).
JobOutcome run_job(const ScenarioSpec& spec, store::ScenarioStore* store);

/// Same, against a caller-cached validated trace (the batching path: a
/// worker handed N scenarios over one trace validates it once).
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
