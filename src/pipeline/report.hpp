// Structured run reports.
//
// Serializes one replay (summary, per-rank statistics, wait-time
// attribution, resource occupancy, protocol counters) or one study (cache
// behaviour, per-scenario makespans and wall times) as a versioned JSON
// document. The schema is documented in DESIGN.md ("JSON run reports");
// bump kReportVersion on any incompatible change.
#pragma once

#include <string>

#include "dimemas/platform.hpp"
#include "dimemas/result.hpp"
#include "lint/diagnostics.hpp"
#include "pipeline/context.hpp"
#include "pipeline/study.hpp"
#include "store/store.hpp"

namespace osim::pipeline {

inline constexpr int kReportVersion = 1;

/// JSON report for one replay. `app` labels the document (typically
/// trace.app). The attribution/occupancy/protocol sections are emitted only
/// when `result.metrics` is populated (ReplayOptions::collect_metrics).
std::string replay_report_json(const dimemas::SimResult& result,
                               const dimemas::Platform& platform,
                               const std::string& app);

/// Same, with the trace's lint report embedded as a "lint" block (schema
/// "osim.lint_report" nested under the run). Passing nullptr emits a
/// document byte-identical to the three-argument overload.
std::string replay_report_json(const dimemas::SimResult& result,
                               const dimemas::Platform& platform,
                               const std::string& app,
                               const lint::Report* lint_report);

/// The run report of `result`, the replay of `context`, with the lint block
/// of the context's trace: the one document `osim_replay --report` writes
/// and the analysis service delivers. The lint passes use the platform's
/// eager threshold and `lint_jobs` threads (the bytes do not depend on
/// it), reading and filling the lint cache in `store` when non-null. The
/// document is labelled with the trace's app name, or "app" when empty.
std::string run_report_json(const ReplayContext& context,
                            const dimemas::SimResult& result,
                            store::ScenarioStore* store, int lint_jobs = 1);

/// JSON report for a sweep: cache statistics plus one record per evaluated
/// scenario (requires StudyOptions::record_scenarios for the latter). Wall
/// times are printed at a fixed microsecond precision, so the document's
/// size does not depend on how fast the replays ran.
///
/// Supervised studies (Study::supervised()) additionally carry a
/// study-level "status" ("complete" or "interrupted") and a per-scenario
/// "status" (ok|timeout|cancelled|failed) with partial wait attribution
/// for stopped scenarios; unsupervised output is byte-identical to
/// pre-supervision builds.
std::string study_report_json(const Study& study);

/// Canonical study report: only fields that are a pure function of the
/// scenario set — label, fingerprint, makespan, status, fault/progress
/// attribution — with wall times, cache tiers and hit counters omitted.
/// Two runs that evaluated the same scenarios to the same results render
/// byte-identically, regardless of --jobs, cache warmth, or how many
/// times a killed sweep was rerun on the same store to finish it;
/// scripts/resilience_test.sh diffs these documents with cmp.
std::string study_report_canonical_json(const Study& study);

/// Writes `json` to `path`; throws osim::Error on I/O failure.
void write_report(const std::string& path, const std::string& json);

}  // namespace osim::pipeline
