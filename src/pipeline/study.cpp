#include "pipeline/study.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/expect.hpp"
#include "dimemas/replay.hpp"
#include "pipeline/scenario.hpp"
#include "store/format.hpp"

namespace osim::pipeline {

namespace {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

const char* cache_tier_name(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMiss:
      return "miss";
    case CacheTier::kMemory:
      return "memory";
    case CacheTier::kDisk:
      return "disk";
  }
  OSIM_UNREACHABLE("bad CacheTier");
}

const char* scenario_status_name(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kOk:
      return "ok";
    case ScenarioStatus::kTimeout:
      return "timeout";
    case ScenarioStatus::kCancelled:
      return "cancelled";
    case ScenarioStatus::kFailed:
      return "failed";
  }
  OSIM_UNREACHABLE("bad ScenarioStatus");
}

Study::Study(StudyOptions options)
    : jobs_(resolve_jobs(options.jobs)), options_(options) {
  if (!options_.cache_dir.empty()) {
    store_ = std::make_unique<store::ScenarioStore>(options_.cache_dir);
  }
  supervised_ = options_.scenario_timeout_s > 0.0 ||
                options_.study_deadline_s > 0.0 ||
                options_.stop_flag != nullptr;
  if (options_.study_deadline_s > 0.0) {
    study_deadline_ = deadline_after(options_.study_deadline_s);
  }
  // jobs_ - 1 workers: in map(), the calling thread is the remaining lane.
  workers_.reserve(static_cast<std::size_t>(jobs_ > 1 ? jobs_ - 1 : 0));
  for (int i = 1; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Study::~Study() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Last chance for writes the store rejected earlier (transient full
  // disk, flaky mount): anything still failing is abandoned — the store
  // is a cache, never a correctness dependency.
  drain_pending_writes(/*force=*/true);
}

void Study::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // serial study: run helpers inline
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void Study::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

double Study::makespan(const ReplayContext& context, std::string_view label) {
  const Fingerprint key = context.fingerprint();
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++hits_;
      record_completed(key, label, it->second, 0.0, CacheTier::kMemory);
      return it->second.makespan;
    }
  }
  // Disk tier: read through the persistent store before paying for a
  // replay. Because the fingerprint covers the full (trace, platform,
  // options) content and replay is pure, a stored artifact is bit-identical
  // to what a cold evaluation would produce. The store holds exactly the
  // scenarios that completed, so this tier is also what makes a rerun of
  // a killed or interrupted sweep on the same store a resume.
  if (store_ != nullptr) {
    if (const std::optional<store::ScenarioArtifact> artifact =
            store_->load(key)) {
      const CachedRun cached = CachedRun::of(*artifact);
      {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        ++disk_hits_;
        cache_.emplace(key, cached);  // promote into the memory tier
      }
      record_completed(key, label, cached, 0.0, CacheTier::kDisk);
      return cached.makespan;
    }
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    ++misses_;
  }
  const auto wall_begin = Clock::now();
  // Supervised pre-flight: once the stop flag or study deadline has
  // fired, pending scenarios are recorded as cancelled without starting a
  // replay that would only be cancelled at its first poll anyway.
  CancelToken token(options_.stop_flag);
  if (supervised_) {
    token.set_study_deadline(study_deadline_);
    if (const StopCause pre = token.check(); pre != StopCause::kNone) {
      return record_stopped(key, label, pre, PartialProgress{}, 0.0);
    }
    if (options_.scenario_timeout_s > 0.0) {
      token.set_scenario_deadline(deadline_after(options_.scenario_timeout_s));
    }
  }
  // Computed outside the lock; a concurrent miss on the same key computes
  // the identical value (replay is pure), so the duplicate insert is
  // harmless.
  dimemas::SimResult result;
  if (supervised_) {
    dimemas::ReplayOptions replay_options = context.options();
    replay_options.cancel = &token;
    try {
      result = run_scenario(context.with_options(replay_options));
    } catch (const CancelledError& e) {
      const double wall_s =
          std::chrono::duration<double>(Clock::now() - wall_begin).count();
      return record_stopped(key, label, e.cause(), e.partial(), wall_s);
    } catch (const Error& e) {
      // Under supervision a bad scenario (malformed trace, deadlock) is a
      // recorded terminal status, not a sweep abort.
      std::fprintf(stderr, "warning: scenario %s failed: %s\n",
                   to_hex(key).c_str(), e.what());
      ScenarioRecord record;
      record.fingerprint = key;
      record.label = std::string(label);
      record.status = ScenarioStatus::kFailed;
      record_scenario(std::move(record));
      return 0.0;
    }
  } else {
    result = run_scenario(context);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_begin).count();
  const store::ScenarioArtifact artifact = store::make_artifact(result);
  const CachedRun cached = CachedRun::of(artifact);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.emplace(key, cached);
  }
  if (store_ != nullptr) {
    store_save(key, artifact);  // write-behind, queued for retry on failure
  }
  record_completed(key, label, cached, wall_s, CacheTier::kMiss);
  return cached.makespan;
}

void Study::record_completed(const Fingerprint& key, std::string_view label,
                             const CachedRun& run, double wall_s,
                             CacheTier tier) {
  if (!options_.record_scenarios) return;
  record_scenario(ScenarioRecord{key, run.makespan, wall_s,
                                 tier != CacheTier::kMiss, std::string(label),
                                 run.fault_counts, run.fault_wait_s,
                                 run.progress_wait_s, tier});
}

double Study::record_stopped(const Fingerprint& key, std::string_view label,
                             StopCause cause, const PartialProgress& partial,
                             double wall_s) {
  const ScenarioStatus status = cause == StopCause::kScenarioTimeout
                                   ? ScenarioStatus::kTimeout
                                   : ScenarioStatus::kCancelled;
  if (cause != StopCause::kScenarioTimeout) {
    interrupted_.store(true, std::memory_order_relaxed);
  }
  ScenarioRecord record;
  record.fingerprint = key;
  record.makespan = partial.sim_time_s;
  record.wall_s = wall_s;
  record.label = std::string(label);
  record.status = status;
  record.partial_blocked_s = partial.blocked_s;
  record_scenario(std::move(record));
  return partial.sim_time_s;
}

void Study::store_save(const Fingerprint& key,
                       const store::ScenarioArtifact& artifact) {
  try {
    store_->save(key, artifact);
    drain_pending_writes(/*force=*/false);
    return;
  } catch (const Error& e) {
    if (!warned_store_write_.exchange(true)) {
      std::fprintf(stderr,
                   "warning: scenario store write failed (%s); queued for "
                   "retry\n",
                   e.what());
    }
  }
  PendingWrite pending;
  pending.key = key;
  pending.artifact = artifact;
  pending.attempts = 1;
  pending.next_try = Clock::now() + std::chrono::milliseconds(100);
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_writes_.push_back(std::move(pending));
  if (pending_writes_.size() > kMaxPendingWrites) {
    pending_writes_.pop_front();  // oldest result is the cheapest loss
  }
}

std::size_t Study::drain_pending_writes(bool force) {
  if (store_ == nullptr) return 0;
  std::deque<PendingWrite> due;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_writes_.empty()) return 0;
    const Clock::time_point now = Clock::now();
    std::deque<PendingWrite> remaining;
    for (PendingWrite& pending : pending_writes_) {
      if (force || pending.next_try <= now) {
        due.push_back(std::move(pending));
      } else {
        remaining.push_back(std::move(pending));
      }
    }
    pending_writes_ = std::move(remaining);
  }
  for (PendingWrite& pending : due) {
    try {
      store_->save(pending.key, pending.artifact);
    } catch (const Error&) {
      // Exponential backoff, capped: 0.1s * 2^attempts, at most ~30s
      // between retries. Attempts are unbounded — the destructor's forced
      // flush is the final word.
      ++pending.attempts;
      const double delay_s =
          std::min(0.1 * static_cast<double>(1ULL << std::min(
                                                 pending.attempts, 8)),
                   30.0);
      pending.next_try = deadline_after(delay_s);
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_writes_.push_back(std::move(pending));
    }
  }
  std::lock_guard<std::mutex> lock(pending_mutex_);
  return pending_writes_.size();
}

std::size_t Study::pending_store_writes() const {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  return pending_writes_.size();
}

std::size_t Study::flush_store_writes() {
  return drain_pending_writes(/*force=*/true);
}

void Study::record_scenario(ScenarioRecord record) {
  if (!options_.record_scenarios) return;
  std::lock_guard<std::mutex> lock(scenario_mutex_);
  scenarios_.push_back(std::move(record));
}

std::size_t Study::cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return hits_;
}

std::size_t Study::cache_misses() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return misses_;
}

std::size_t Study::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

std::size_t Study::disk_hits() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return disk_hits_;
}

std::vector<ScenarioRecord> Study::scenarios() const {
  std::lock_guard<std::mutex> lock(scenario_mutex_);
  return scenarios_;
}

}  // namespace osim::pipeline
