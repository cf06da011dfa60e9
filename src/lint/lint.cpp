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
/// after salvage recovery of a damaged file) cannot be analyzed at all.
bool check_structure(const trace::Trace& trace, Report& report) {
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
  return true;
}

/// Runs the task list on `jobs` workers. Each task owns one result slot,
/// so the schedule (and thread count) cannot affect the merged report.
void run_tasks(std::vector<std::function<void()>>& tasks, int jobs) {
  if (jobs <= 1 || tasks.size() <= 1) {
    for (auto& task : tasks) task();
    return;
  }
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

}  // namespace

Report lint_trace(const trace::Trace& trace, const LintOptions& options) {
  Report report;
  if (!check_structure(trace, report)) return report;

  const std::size_t num_ranks = trace.ranks.size();
  // Slot layout (canonical merge order): match, requests per rank,
  // collectives, deadlock, then the happens-before passes (races + overlap
  // share one slot). Deadlock, races and overlap read one run of the
  // abstract machine, so they share one task.
  std::vector<Report> slots(num_ranks + 4);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] { check_matching(trace, slots[0]); });
  for (std::size_t r = 0; r < num_ranks; ++r) {
    tasks.emplace_back([&, r] {
      check_requests_rank(trace, static_cast<trace::Rank>(r), slots[1 + r]);
    });
  }
  tasks.emplace_back(
      [&] { check_collectives(trace, slots[num_ranks + 1]); });
  tasks.emplace_back([&] {
    const HbAnalysis hb =
        analyze_happens_before(trace, options.eager_threshold_bytes);
    check_deadlock(trace, hb, slots[num_ranks + 2]);
    check_races(trace, hb, slots[num_ranks + 3]);
    check_overlap_hazards(trace, hb, slots[num_ranks + 3]);
  });

  run_tasks(tasks, options.jobs);
  for (const Report& slot : slots) report.merge(slot);
  return report;
}

Report lint_transform(const trace::Trace& original,
                      const trace::Trace& transformed,
                      const LintOptions& /*options*/) {
  Report report;
  check_transform(original, transformed, report);
  return report;
}

}  // namespace osim::lint
