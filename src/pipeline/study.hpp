// Study — the parallel sweep engine.
//
// A Study owns a fixed-size thread pool and a replay-result cache keyed by
// ReplayContext fingerprint. The paper's sweep experiments (bandwidth
// bisections, bus calibrations, what-if breakdowns) are dozens to hundreds
// of *independent* dimemas::replay calls; because replay() is a pure,
// deterministic function of (trace, platform, options), evaluating those
// calls on a pool is bit-identical to running them serially, and probes
// that repeat — the shared endpoints of overlapping bisections — are served
// from the cache instead of replayed.
//
// Concurrency model: Study::map fans a batch out on the pool while the
// calling thread drains work items itself. Since the caller always
// participates, a map() issued from inside a pool task (e.g. a what-if
// breakdown running inside a per-app task) makes progress even when every
// worker is busy — nested maps cannot deadlock. Exceptions thrown by a work
// item are captured and rethrown on the calling thread, lowest index first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "dimemas/result.hpp"
#include "faults/model.hpp"
#include "pipeline/context.hpp"
#include "store/store.hpp"

namespace osim::pipeline {

struct StudyOptions {
  /// Worker threads evaluating scenarios. 1 = fully serial (no threads are
  /// spawned); 0 = one per hardware thread.
  int jobs = 1;
  /// Keep one ScenarioRecord per makespan() evaluation (see scenarios()),
  /// for structured study reports.
  bool record_scenarios = false;
  /// Root of the persistent scenario store (store::ScenarioStore), the
  /// disk tier behind the in-memory cache: makespan() reads through it and
  /// writes computed results behind, so identical scenarios are served
  /// across processes and sessions. Empty = no disk tier, in which case
  /// behavior and results are bit-identical to a store-less build.
  std::string cache_dir;

  // --- Supervision (all off by default; when every field below is at its
  // default the study behaves — and its report reads — byte-identically
  // to a pre-supervision build; perf_identity_test pins this) ---

  /// Wall-clock budget per scenario replay in seconds (0 = unbounded). A
  /// scenario over budget is recorded with status kTimeout plus its
  /// partial wait attribution; the sweep continues.
  double scenario_timeout_s = 0.0;
  /// Wall-clock budget for the whole study in seconds, measured from
  /// construction (0 = unbounded). Past the deadline every replay stops
  /// cooperatively and the study reports interrupted.
  double study_deadline_s = 0.0;
  /// External stop flag (typically common/signals.hpp's shutdown_flag());
  /// when it goes true, in-flight replays stop cooperatively and pending
  /// scenarios are recorded as cancelled. Null = no external stop source.
  const std::atomic<bool>* stop_flag = nullptr;
};

/// Which tier answered a makespan() evaluation. kMiss means the scenario
/// was actually replayed (and written behind to the store when one is
/// configured).
enum class CacheTier { kMiss, kMemory, kDisk };

const char* cache_tier_name(CacheTier tier);

/// Terminal status of one scenario within a supervised study. Only kOk
/// results are cached or stored, so a rerun on the same store serves the
/// completed scenarios and retries every other one.
enum class ScenarioStatus : std::uint8_t {
  kOk = 0,         ///< replay completed; result is cached/cacheable
  kTimeout = 1,    ///< stopped by --scenario-timeout; partial result
  kCancelled = 2,  ///< stopped by SIGINT/SIGTERM or --study-deadline
  kFailed = 3,     ///< replay threw (bad trace, deadlock, ...)
};

/// Stable report names: ok|timeout|cancelled|failed.
const char* scenario_status_name(ScenarioStatus status);

/// One evaluated sweep scenario: what was replayed, the result, and what it
/// cost. Records accumulate in completion order, which depends on thread
/// scheduling — study_report_json() sorts by (label, fingerprint); sort the
/// same way for any other stable output.
struct ScenarioRecord {
  Fingerprint fingerprint;
  double makespan = 0.0;
  double wall_s = 0.0;  // replay wall time; 0 for cache hits
  bool cache_hit = false;
  std::string label;
  /// Fault-injection activity (enabled == false for fault-free scenarios).
  /// Cached alongside the makespan, so cache hits keep their counters.
  faults::Counts fault_counts;
  /// Total fault-attributed wait time across ranks; populated only when the
  /// context collects metrics (0 otherwise).
  double fault_wait_s = 0.0;
  /// Total progress-engine-attributed wait time across ranks (see
  /// metrics::WaitComponents::progress_s); like fault_wait_s, populated
  /// only when the context collects metrics.
  double progress_wait_s = 0.0;
  /// Tier that served this evaluation; cache_hit == (tier != kMiss).
  CacheTier cache_tier = CacheTier::kMiss;
  /// Terminal status under supervision. Always kOk for unsupervised
  /// studies and for every cache hit.
  ScenarioStatus status = ScenarioStatus::kOk;
  /// For kTimeout/kCancelled: total per-rank blocked time at the stop
  /// (partial wait attribution). 0 otherwise.
  double partial_blocked_s = 0.0;
};

class Study {
 public:
  explicit Study(StudyOptions options = {});
  ~Study();
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Replay makespan of `context`, served from the cache when this exact
  /// (trace, platform, options) fingerprint has been evaluated before.
  /// Thread-safe; callable from inside map() work items. `label` tags the
  /// ScenarioRecord when StudyOptions::record_scenarios is on.
  double makespan(const ReplayContext& context, std::string_view label = {});

  /// Applies `fn` to every item, in parallel across the pool, and returns
  /// the results in item order. `fn`'s result type must be
  /// default-constructible. The first exception (by item index) is
  /// rethrown after all items finish. Safe to call from inside a work item.
  template <typename T, typename F>
  auto map(const std::vector<T>& items, F fn)
      -> std::vector<std::invoke_result_t<F&, const T&>>;

  int jobs() const { return jobs_; }
  /// In-memory tier hits (disk hits are counted separately).
  std::size_t cache_hits() const;
  std::size_t cache_misses() const;
  std::size_t cache_size() const;
  /// Scenarios served from the persistent store (0 without a cache_dir).
  std::size_t disk_hits() const;

  /// True when any supervision option is active. Reports key their status
  /// fields off this so unsupervised output stays byte-identical.
  bool supervised() const { return supervised_; }
  /// True once the study was stopped early (stop flag or study deadline).
  /// Supervised reports carry "status": "interrupted" and binaries exit
  /// kExitInterrupted.
  bool interrupted() const {
    return interrupted_.load(std::memory_order_relaxed);
  }
  /// Store writes queued for retry after a failed write-behind (retried
  /// with exponential backoff as the sweep progresses; flushed again at
  /// destruction). Non-zero only while the store is misbehaving.
  std::size_t pending_store_writes() const;
  /// Retries every queued write now, ignoring backoff; returns how many
  /// writes are still pending afterwards.
  std::size_t flush_store_writes();

  /// The persistent store backing the disk tier, or nullptr when no
  /// cache_dir was configured. Useful for maintenance surfaces and tests.
  store::ScenarioStore* store() const { return store_.get(); }

  /// Copy of the scenario records accumulated so far. Empty unless
  /// StudyOptions::record_scenarios is set. Thread-safe.
  std::vector<ScenarioRecord> scenarios() const;

 private:
  using Clock = std::chrono::steady_clock;

  void enqueue(std::function<void()> task);
  void worker_loop();
  void record_scenario(ScenarioRecord record);

  int jobs_ = 1;
  StudyOptions options_;

  /// What a makespan() evaluation caches: enough to replay a ScenarioRecord
  /// (including fault counters) without rerunning the simulation.
  struct CachedRun {
    double makespan = 0.0;
    faults::Counts fault_counts;
    double fault_wait_s = 0.0;
    double progress_wait_s = 0.0;

    static CachedRun of(const store::ScenarioArtifact& artifact) {
      return {artifact.makespan, artifact.fault_counts, artifact.fault_wait_s,
              artifact.progress_wait_s};
    }
  };

  /// Records a completed run as served by `tier`.
  void record_completed(const Fingerprint& key, std::string_view label,
                        const CachedRun& run, double wall_s, CacheTier tier);
  /// The stopped-replay tail of makespan(): records the scenario with its
  /// partial progress (nothing is cached or stored, so a rerun retries
  /// it) and flags the study interrupted for non-timeout causes. Returns
  /// the partial simulated time.
  double record_stopped(const Fingerprint& key, std::string_view label,
                        StopCause cause, const PartialProgress& partial,
                        double wall_s);
  /// Write-behind with retry: tries the store now, queues for backoff
  /// retry on failure.
  void store_save(const Fingerprint& key,
                  const store::ScenarioArtifact& artifact);
  /// Retries queued writes. `force` ignores the backoff deadlines.
  /// Returns how many writes are still pending.
  std::size_t drain_pending_writes(bool force);

  mutable std::mutex cache_mutex_;
  std::unordered_map<Fingerprint, CachedRun, FingerprintHash> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t disk_hits_ = 0;

  /// Disk tier; nullptr when no cache_dir is configured.
  std::unique_ptr<store::ScenarioStore> store_;
  /// Warn at most once when write-behind fails (full disk, bad mount...):
  /// persisting is an optimization, never a reason to fail the study.
  std::atomic<bool> warned_store_write_ = false;

  /// Failed write-behinds waiting for retry, oldest first. Bounded: past
  /// kMaxPendingWrites the oldest entry is dropped (it is only a cache).
  struct PendingWrite {
    Fingerprint key;
    store::ScenarioArtifact artifact;
    int attempts = 0;
    Clock::time_point next_try;
  };
  static constexpr std::size_t kMaxPendingWrites = 1024;
  mutable std::mutex pending_mutex_;
  std::deque<PendingWrite> pending_writes_;

  // --- Supervision state ---
  bool supervised_ = false;
  /// Absolute study deadline (Clock::time_point::max() = unbounded).
  Clock::time_point study_deadline_ = Clock::time_point::max();
  std::atomic<bool> interrupted_ = false;

  mutable std::mutex scenario_mutex_;
  std::vector<ScenarioRecord> scenarios_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

template <typename T, typename F>
auto Study::map(const std::vector<T>& items, F fn)
    -> std::vector<std::invoke_result_t<F&, const T&>> {
  using R = std::invoke_result_t<F&, const T&>;
  static_assert(!std::is_void_v<R>,
                "Study::map work items must return a value");
  // Shared between the caller and the pool helpers; kept alive by
  // shared_ptr so a helper that wakes up after completion (claims no index)
  // exits without touching freed state.
  struct State {
    const std::vector<T>* items = nullptr;
    F* fn = nullptr;
    std::size_t size = 0;
    std::vector<R> results;
    std::vector<std::exception_ptr> errors;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t completed = 0;
  };
  auto state = std::make_shared<State>();
  state->items = &items;
  state->fn = &fn;
  state->size = items.size();
  state->results.resize(items.size());
  state->errors.resize(items.size());

  auto drain = [state] {
    while (true) {
      const std::size_t i = state->next.fetch_add(1);
      if (i >= state->size) break;
      try {
        state->results[i] = (*state->fn)((*state->items)[i]);
      } catch (...) {
        state->errors[i] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (++state->completed == state->size) state->done_cv.notify_all();
    }
  };

  for (std::size_t h = 1;
       h < static_cast<std::size_t>(jobs_) && h < items.size(); ++h) {
    enqueue(drain);
  }
  drain();  // the calling thread always participates
  // Results and errors leave the shared State before they are used: a
  // helper may still drop the last State reference afterwards, and must
  // then destroy nothing the caller is reading (a rethrown exception
  // object included).
  std::vector<R> results;
  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock,
                        [&] { return state->completed == state->size; });
    results = std::move(state->results);
    errors = std::move(state->errors);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace osim::pipeline
