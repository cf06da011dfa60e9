// Shared pieces of the benchmark: wall clocks, in-memory spans for
// the traced run, latency statistics, peak-RSS probes, the expected-results
// table and the per-run result that main() prints.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- spans -----------------------------------------------------------------
//
// The traced run records one span per call into a layer: name, start, end
// and the span that caused it. Spans of one operation share the operation
// span as ancestor. Everything stays in memory until the run ends; with
// tracing off, opening a span costs one branch.

class Spans {
 public:
  static constexpr std::int64_t kInherit = -2;  // innermost span on thread
  static constexpr std::int64_t kRoot = -1;

  class Scope {
   public:
    Scope(Spans* spans, std::int64_t id) : spans_(spans), id_(id) {}
    Scope(Scope&& other) noexcept : spans_(other.spans_), id_(other.id_) {
      other.spans_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// Ends the span now (idempotent).
    void close();
    std::int64_t id() const { return id_; }

   private:
    Spans* spans_;
    std::int64_t id_;
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens span `name` under `parent` (kInherit: the innermost span still
  /// open on this thread). Inert when tracing is off.
  Scope open(std::string_view name, std::int64_t parent = kInherit);
  /// Adds `amount` to counter `name` (recorded only when tracing is on).
  void count(std::string_view name, double amount);

  struct Total {
    std::int64_t calls = 0;
    double total_s = 0.0;  // inclusive
    double self_s = 0.0;   // minus the union of child spans
  };
  std::map<std::string, Total> totals() const;
  double counter(std::string_view name) const;
  /// {"spans": [...], "self_s": {...}, "counters": {...}} as JSON members.
  void write_json(std::string& out) const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent;
    double start_s;
    double end_s;  // < 0 while open
  };
  void end(std::int64_t id);

  std::atomic<bool> enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> counters_;
};

/// The process-wide span recorder.
Spans& spans();

// --- statistics ------------------------------------------------------------

double median(std::vector<double> values);

/// Nearest-rank percentile `percentile` of `values`, with the number of
/// samples above it. Each workload fixes its tail percentile and runs until
/// at least ten samples lie beyond it (min_samples), so the percentile is
/// honest on every run and does not shift when the program gets faster.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> values, double percentile);

/// Fewest samples that leave ten beyond the nearest-rank `percentile`.
std::size_t min_samples(double percentile);

// --- processes ---------------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` in MB (10^6 bytes); 0 if unreadable.
double peak_rss_mb(pid_t pid);
/// Resets `pid`'s VmHWM to its current RSS, so a later peak_rss_mb() covers
/// only what ran in between.
void reset_peak_rss(pid_t pid);

/// Removes `path` recursively; never throws.
void remove_tree(const std::string& path);

/// Seeded Fisher-Yates shuffle (the same on every standard library).
template <typename T>
void shuffle(std::vector<T>& items, osim::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

// --- expected results --------------------------------------------------------

/// One scenario's simulated outcome as this tree computes it. Every
/// operation is checked against these; a mismatch fails the operation.
struct Expected {
  double makespan_s = 0.0;
  std::uint64_t des_events = 0;
  std::int64_t lint_errors = -1;  // -1: not recorded for this scenario
};

/// Key of one scenario: "<app>.<variant>@<ranks>/<bandwidth MB/s>".
std::string scenario_key(std::string_view app, std::string_view variant,
                         int ranks, double bandwidth);

class ExpectedTable {
 public:
  /// Loads `path` (one "key makespan des_events lint_errors" line each;
  /// '#' starts a comment). Throws osim::Error when unreadable.
  static ExpectedTable load(const std::string& path);
  const Expected* find(const std::string& key) const;
  void add(const std::string& key, const Expected& expected);
  void save(const std::string& path, const std::string& header) const;

 private:
  std::map<std::string, Expected> rows_;
};

// --- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  bool sound = true;  // false: a setup, shutdown or consistency check failed
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra facts for the detail record (sample counts, percentiles...).
  std::vector<Metric> notes;

  void fail(std::string problem) {
    sound = false;
    problems.push_back(std::move(problem));
  }
};

/// The seven end-to-end metrics from one timed phase. `latencies_ms` holds
/// one sample per completed operation; op_tail_ms is taken at
/// `tail_percentile`.
void add_end_to_end(RunResult& result, double setup_s,
                    const std::vector<double>& latencies_ms,
                    double tail_percentile, double timed_s, double peak_rss,
                    double report_mb_per_op);

/// Arguments every workload receives.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  // private scratch directory for this run
  const ExpectedTable* expected = nullptr;
};

/// Number of set-ups a run times; setup_s is their median. Two keeps all
/// runs of all workloads within the benchmark's time budget: one sweep1024
/// set-up (six 1024-rank traces) takes about 8 s.
inline constexpr int kSetupRepetitions = 2;

}  // namespace perfbench
