#include "pipeline/lint_cache.hpp"

#include "common/expect.hpp"
#include "pipeline/context.hpp"

namespace osim::pipeline {

Fingerprint lint_fingerprint(const trace::Trace& trace,
                             const lint::LintOptions& options) {
  const Fingerprint trace_fp = fingerprint_of(trace);
  FingerprintHasher h;
  h.u64(0x4C494E54);  // domain tag "LINT": never collides with replay keys
  h.u64(trace_fp.lo);
  h.u64(trace_fp.hi);
  h.u64(options.eager_threshold_bytes);
  h.u64(kLintAnalysisVersion);
  h.u64(static_cast<std::uint64_t>(lint::kLintReportVersion));
  return h.value();
}

lint::Report lint_with_cache(const trace::Trace& trace,
                             const lint::LintOptions& options,
                             store::ScenarioStore* store, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (store == nullptr) return lint::lint_trace(trace, options);

  const Fingerprint fp = lint_fingerprint(trace, options);
  if (std::optional<lint::Report> cached = store->load_lint(fp)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return *std::move(cached);
  }
  lint::Report report = lint::lint_trace(trace, options);
  try {
    store->save_lint(fp, report);
  } catch (const Error&) {
    // Write-behind is best effort: the report is already computed.
  }
  return report;
}

}  // namespace osim::pipeline
