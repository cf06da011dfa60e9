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
    case CacheTier::kJournal:
      return "journal";
  }
  OSIM_UNREACHABLE("bad CacheTier");
}

Study::Study(StudyOptions options)
    : jobs_(resolve_jobs(options.jobs)), options_(options) {
  const std::string cache_dir = store::resolve_cache_dir(options_.cache_dir);
  if (!cache_dir.empty()) {
    store_ = std::make_unique<store::ScenarioStore>(cache_dir);
  }
  supervised_ = options_.scenario_timeout_s > 0.0 ||
                options_.study_deadline_s > 0.0 ||
                options_.memory_budget_bytes > 0 || options_.journal ||
                options_.resume || options_.stop_flag != nullptr;
  if (options_.study_deadline_s > 0.0) {
    study_deadline_ = deadline_after(options_.study_deadline_s);
  }
  if (options_.journal || options_.resume) {
    if (cache_dir.empty()) {
      throw Error(
          "study journal requires a scenario store: pass --cache-dir or "
          "set $OSIM_CACHE_DIR");
    }
    journal_ = std::make_unique<supervise::StudyJournal>(
        cache_dir, supervise::study_fingerprint(options_.study_id));
    if (options_.resume) {
      // Completed entries (including ones an earlier resume itself served)
      // become the resume tier; timeout/cancelled/failed entries are NOT
      // resumable — a rerun should retry them.
      for (const supervise::JournalEntry& entry : journal_->recovered()) {
        if (entry.status == supervise::ScenarioStatus::kOk ||
            entry.status == supervise::ScenarioStatus::kSkippedResume) {
          resume_map_[entry.fingerprint] = entry;
        }
      }
    }
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
  if (journal_ != nullptr && !interrupted()) {
    // The sweep ran to its natural end (timeouts and failures included):
    // mark the journal finished so osim_cache gc may evict it. An
    // interrupted study keeps an open journal for --resume.
    try {
      journal_->append_complete();
    } catch (const Error&) {
      // Destructor: an unwritable journal only costs the gc eligibility.
    }
  }
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
      ScenarioRecord record{key,   it->second.makespan,
                            0.0,   true,
                            std::string(label), it->second.fault_counts,
                            it->second.fault_wait_s,
                            it->second.progress_wait_s, CacheTier::kMemory};
      record_scenario(std::move(record));
      return it->second.makespan;
    }
  }
  // Resume tier: a previous (killed or interrupted) run of this study
  // journaled the scenario as completed, entry values included, so it is
  // served without replaying and without even needing the store object to
  // still exist. The journal gets a skipped-resume entry — the record
  // itself stays status ok, because the *result* is a completed one.
  if (!resume_map_.empty()) {
    if (const auto it = resume_map_.find(key); it != resume_map_.end()) {
      CachedRun cached;
      cached.makespan = it->second.makespan;
      cached.fault_counts = it->second.fault_counts;
      cached.fault_wait_s = it->second.fault_wait_s;
      cached.progress_wait_s = it->second.progress_wait_s;
      {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        ++journal_hits_;
        cache_insert(key, cached);
      }
      journal_append(key, supervise::ScenarioStatus::kSkippedResume, cached,
                     0.0);
      ScenarioRecord record{key,   cached.makespan,
                            0.0,   true,
                            std::string(label), cached.fault_counts,
                            cached.fault_wait_s,
                            cached.progress_wait_s, CacheTier::kJournal};
      record_scenario(std::move(record));
      return cached.makespan;
    }
  }
  // Disk tier: read through the persistent store before paying for a
  // replay. Because the fingerprint covers the full (trace, platform,
  // options) content and replay is pure, a stored artifact is bit-identical
  // to what a cold evaluation would produce.
  if (store_ != nullptr) {
    if (const std::optional<store::ScenarioArtifact> artifact =
            store_->load(key)) {
      CachedRun cached;
      cached.makespan = artifact->makespan;
      cached.fault_counts = artifact->fault_counts;
      cached.fault_wait_s = artifact->fault_wait_s;
      cached.progress_wait_s = artifact->progress_wait_s;
      {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        ++disk_hits_;
        cache_insert(key, cached);  // promote into the memory tier
      }
      if (supervised_) {
        journal_append(key, supervise::ScenarioStatus::kOk, cached, 0.0);
      }
      ScenarioRecord record{key,   cached.makespan,
                            0.0,   true,
                            std::string(label), cached.fault_counts,
                            cached.fault_wait_s,
                            cached.progress_wait_s, CacheTier::kDisk};
      record_scenario(std::move(record));
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
      // journaled terminal status, not a sweep abort.
      std::fprintf(stderr, "warning: scenario %s failed: %s\n",
                   to_hex(key).c_str(), e.what());
      journal_append(key, supervise::ScenarioStatus::kFailed, CachedRun{},
                     0.0);
      ScenarioRecord record;
      record.fingerprint = key;
      record.label = std::string(label);
      record.status = supervise::ScenarioStatus::kFailed;
      record_scenario(std::move(record));
      return 0.0;
    }
  } else {
    result = run_scenario(context);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_begin).count();
  const store::ScenarioArtifact artifact = store::make_artifact(result);
  CachedRun cached;
  cached.makespan = artifact.makespan;
  cached.fault_counts = artifact.fault_counts;
  cached.fault_wait_s = artifact.fault_wait_s;
  cached.progress_wait_s = artifact.progress_wait_s;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_insert(key, cached);
  }
  if (store_ != nullptr) {
    store_save(key, artifact);  // write-behind, queued for retry on failure
  }
  journal_append(key, supervise::ScenarioStatus::kOk, cached, 0.0);
  ScenarioRecord record{key,   cached.makespan,
                        wall_s, false,
                        std::string(label), cached.fault_counts,
                        cached.fault_wait_s,
                        cached.progress_wait_s, CacheTier::kMiss};
  record_scenario(std::move(record));
  return cached.makespan;
}

void Study::cache_insert(const Fingerprint& key, const CachedRun& run) {
  const auto [it, inserted] = cache_.emplace(key, run);
  (void)it;
  if (!inserted || options_.memory_budget_bytes <= 0) return;
  insertion_order_.push_back(key);
  // Approximate per-entry footprint: the node itself plus hash-table and
  // bookkeeping overhead. The point is a stable, monotone bound, not an
  // exact heap accounting.
  constexpr std::size_t kEntryBytes =
      sizeof(std::pair<const Fingerprint, CachedRun>) + 64;
  const auto budget = static_cast<std::size_t>(options_.memory_budget_bytes);
  while (cache_.size() > 1 && cache_.size() * kEntryBytes > budget &&
         !insertion_order_.empty()) {
    const Fingerprint oldest = insertion_order_.front();
    insertion_order_.pop_front();
    if (oldest == key) {
      // Never evict what we just inserted — with a budget below one entry
      // the cache still holds the newest result.
      insertion_order_.push_back(oldest);
      if (insertion_order_.size() <= 1) break;
      continue;
    }
    if (cache_.erase(oldest) > 0) ++evictions_;
  }
}

void Study::journal_append(const Fingerprint& key,
                           supervise::ScenarioStatus status,
                           const CachedRun& run, double partial_blocked_s) {
  if (journal_ == nullptr) return;
  supervise::JournalEntry entry;
  entry.fingerprint = key;
  entry.status = status;
  entry.makespan = run.makespan;
  entry.fault_wait_s = run.fault_wait_s;
  entry.progress_wait_s = run.progress_wait_s;
  entry.partial_blocked_s = partial_blocked_s;
  entry.fault_counts = run.fault_counts;
  try {
    journal_->append(entry);
  } catch (const Error& e) {
    if (!warned_store_write_.exchange(true)) {
      std::fprintf(stderr,
                   "warning: study journal write failed (%s); resume "
                   "coverage will be incomplete\n",
                   e.what());
    }
  }
}

double Study::record_stopped(const Fingerprint& key, std::string_view label,
                             StopCause cause, const PartialProgress& partial,
                             double wall_s) {
  const supervise::ScenarioStatus status =
      cause == StopCause::kScenarioTimeout
          ? supervise::ScenarioStatus::kTimeout
          : supervise::ScenarioStatus::kCancelled;
  if (cause != StopCause::kScenarioTimeout) {
    interrupted_.store(true, std::memory_order_relaxed);
  }
  CachedRun partial_run;
  partial_run.makespan = partial.sim_time_s;
  journal_append(key, status, partial_run, partial.blocked_s);
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

std::size_t Study::journal_hits() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return journal_hits_;
}

std::size_t Study::cache_evictions() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return evictions_;
}

std::vector<ScenarioRecord> Study::scenarios() const {
  std::lock_guard<std::mutex> lock(scenario_mutex_);
  return scenarios_;
}

}  // namespace osim::pipeline
