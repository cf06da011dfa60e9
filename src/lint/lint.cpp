#include "lint/lint.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "lint/collectives.hpp"
#include "lint/hb.hpp"
#include "lint/match.hpp"
#include "lint/overlap_hazards.hpp"
#include "lint/races.hpp"
#include "lint/requests.hpp"
#include "lint/transform_check.hpp"

namespace osim::lint {

namespace {

/// Shape sanity: all other passes index trace.ranks by rank id, so a trace
/// whose stream count disagrees with its declared rank count (possible
/// after salvage recovery of a damaged file), or that declares no ranks,
/// cannot be analyzed at all. A non-positive MIPS rate is reported but
/// does not stop the record passes.
bool check_shape(const trace::Trace& trace, Report& report) {
  if (trace.num_ranks < 0 ||
      trace.ranks.size() != static_cast<std::size_t>(trace.num_ranks)) {
    report.add(Diagnostic{
        Severity::kError, "structure", "rank-shape", -1, kNoRecord,
        strprintf("trace declares %d rank(s) but carries %zu record "
                  "stream(s); skipping semantic passes",
                  trace.num_ranks, trace.ranks.size()),
        {}});
    return false;
  }
  if (trace.num_ranks == 0) {
    report.add(Diagnostic{Severity::kError, "structure", "no-ranks", -1,
                          kNoRecord, "trace declares no ranks", {}});
    return false;
  }
  if (!(trace.mips > 0.0)) {
    report.add(Diagnostic{
        Severity::kError, "structure", "mips", -1, kNoRecord,
        strprintf("trace MIPS rate %g is not positive", trace.mips), {}});
  }
  return true;
}

/// Runs the task list on `jobs` (>= 2) workers. Each task owns one
/// result slot, so the schedule (and thread count) cannot affect the
/// merged report.
void run_tasks(std::vector<std::function<void()>>& tasks, int jobs) {
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs), tasks.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < tasks.size();
           i = next.fetch_add(1)) {
        tasks[i]();
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Deadlock, races and overlap: they read one run of the abstract machine.
void run_semantic_passes(const trace::Trace& trace, const LintOptions& options,
                         Report& deadlock, Report& hb_passes) {
  const HbAnalysis hb =
      analyze_happens_before(trace, options.eager_threshold_bytes);
  if (options.stats != nullptr) {
    options.stats->hb_peak_live_snapshots = hb.peak_live_snapshots;
  }
  check_deadlock(trace, hb, deadlock);
  check_races(trace, hb, hb_passes);
  check_overlap_hazards(trace, hb, hb_passes);
}

/// The one pass schedule behind check_structure and lint_trace, in the
/// canonical merge order: match, requests per rank, collectives, then with
/// `semantic` deadlock and the happens-before passes. With jobs <= 1 every
/// pass writes straight into the report; otherwise each pass (and the
/// rank-local requests pass per rank) is a task writing its own slot, and
/// the slots are merged in that order.
Report run_passes(const trace::Trace& trace, const LintOptions& options,
                  bool semantic) {
  Report report;
  if (!check_shape(trace, report)) return report;

  if (options.jobs <= 1) {
    check_matching(trace, report);
    check_requests(trace, report);
    check_collectives(trace, report);
    if (semantic) run_semantic_passes(trace, options, report, report);
    return report;
  }

  const std::size_t num_ranks = trace.ranks.size();
  std::vector<Report> slots(num_ranks + (semantic ? 4 : 2));
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] { check_matching(trace, slots[0]); });
  for (std::size_t r = 0; r < num_ranks; ++r) {
    tasks.emplace_back([&, r] {
      check_requests_rank(trace, static_cast<trace::Rank>(r), slots[1 + r]);
    });
  }
  tasks.emplace_back(
      [&] { check_collectives(trace, slots[num_ranks + 1]); });
  if (semantic) {
    tasks.emplace_back([&] {
      run_semantic_passes(trace, options, slots[num_ranks + 2],
                          slots[num_ranks + 3]);
    });
  }

  run_tasks(tasks, options.jobs);
  for (const Report& slot : slots) report.merge(slot);
  return report;
}

}  // namespace

Report check_structure(const trace::Trace& trace) {
  return run_passes(trace, {}, /*semantic=*/false);
}

Report lint_trace(const trace::Trace& trace, const LintOptions& options) {
  return run_passes(trace, options, /*semantic=*/true);
}

Report lint_transform(const trace::Trace& original,
                      const trace::Trace& transformed) {
  Report report;
  check_transform(original, transformed, report);
  return report;
}

}  // namespace osim::lint
