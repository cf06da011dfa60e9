// Cached lint runs, keyed by trace content.
//
// lint_trace() is a pure function of (trace, eager threshold) — the jobs
// count changes the schedule, never the report — so its result can live in
// the content-addressed store next to replay artifacts. The cache key mixes
// the trace fingerprint with the eager threshold and an analysis version
// (bumped whenever any pass's behaviour changes), so stale reports are
// structurally unreachable rather than merely unlikely.
//
// The store keeps the *full* diagnostic list (store/format.hpp, object kind
// "OSIMLNT1"), which is what makes a warm run's rendered output
// byte-identical to a cold one.
#pragma once

#include "lint/lint.hpp"
#include "pipeline/fingerprint.hpp"
#include "store/store.hpp"
#include "trace/trace.hpp"

namespace osim::pipeline {

/// Bump whenever any lint pass changes what it reports (message wording,
/// new passes, severity changes): cached reports from older analyses must
/// miss, not resurface. Service tickets fold it too (serve::
/// spec_fingerprint). 2: a wildcard receive's rivals are only sends to
/// its own rank.
inline constexpr std::uint32_t kLintAnalysisVersion = 2;

/// Cache key for a lint run: trace content fingerprint + eager threshold +
/// analysis and schema versions. Deliberately excludes LintOptions::jobs.
Fingerprint lint_fingerprint(const trace::Trace& trace,
                             const lint::LintOptions& options);

/// Runs lint_trace() through the store: a decodable cached report is
/// returned as-is, otherwise the trace is analyzed and the result written
/// back (best effort — a failed write never fails the lint). `store` may
/// be null (cache off). `cache_hit`, when non-null, reports which path
/// served the result.
lint::Report lint_with_cache(const trace::Trace& trace,
                             const lint::LintOptions& options,
                             store::ScenarioStore* store,
                             bool* cache_hit = nullptr);

}  // namespace osim::pipeline
