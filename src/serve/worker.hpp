// Worker processes of the analysis service — the slurmd side of the
// controller/worker split.
//
// A worker is a crash domain: it runs the replay pipeline (the part that
// can be OOM-killed, crash-injected, or wedged by a pathological trace)
// across a socketpair from the controller, which holds only bookkeeping.
// Every worker is a fork+exec child: the controller re-execs its own
// binary with --worker --worker-fd 3, so the child gets a fresh address
// space (no inherited malloc/lock state, the classic fork-without-exec
// hazard) and a SIGKILL kills exactly one scenario attempt.
//
// The wire between them is the same u32-length framing as the client RPC
// (serve/protocol.hpp) with the JobRequest/JobResult vocabulary from
// serve/job.hpp, decoded strictly on both ends.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/protocol.hpp"

namespace osim::serve {

/// The worker side: reads job frames from `fd` until EOF or protocol
/// error, runs each through run_job (serve/job.hpp), writes result frames
/// back. Owns (and closes) `fd`. Returns a process exit code (0 on clean
/// EOF).
int run_worker_loop(int fd, const std::string& cache_dir);

struct WorkerOptions {
  int count = 2;              // at least 1
  std::string serve_binary;   // this binary's path, re-exec'd per worker
  std::string cache_dir;      // store root forwarded to workers ('' = none)
};

/// The controller's view of its workers: spawn, assign, collect, reap,
/// respawn. A worker runs at most one job at a time. Not thread-safe —
/// the controller event loop is the only caller.
class WorkerPool {
 public:
  /// Aborts (OSIM_CHECK) on a count below 1; the tools range-check
  /// --workers.
  explicit WorkerPool(WorkerOptions options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns workers up to the configured count. Throws osim::Error when a
  /// worker cannot be spawned.
  void start();

  int size() const { return static_cast<int>(workers_.size()); }
  /// Poll fd for worker `i`; -1 while the slot is dead.
  int fd(int i) const { return workers_[static_cast<std::size_t>(i)]->fd; }
  /// Child pid for worker `i`; -1 while dead.
  int pid(int i) const { return workers_[static_cast<std::size_t>(i)]->pid; }
  bool alive(int i) const {
    return workers_[static_cast<std::size_t>(i)]->fd >= 0;
  }
  /// An alive worker with no in-flight job, or -1.
  int idle_worker() const;
  int busy_workers() const;

  /// Sends `request` to worker `i`, which must be idle.
  void assign(int i, const JobRequest& request);

  /// Drains readable bytes from worker `i`, returning every completed
  /// result. Sets `dead` when the stream ended (EOF, error, or a protocol
  /// violation) — the caller requeues take_inflight() and respawn()s.
  std::vector<JobResult> on_readable(int i, bool& dead);

  /// The ticket of the job assigned to worker `i` that has not produced
  /// a result, if any — what a death loses and the controller must
  /// requeue.
  std::optional<pipeline::Fingerprint> take_inflight(int i);

  /// Worker slot owning child `pid`, or -1 (SIGCHLD path).
  int worker_by_pid(int pid) const;

  /// Marks worker `i` dead (closes the fd).
  void mark_dead(int i);

  /// Re-spawns a dead slot. Throws osim::Error on spawn failure.
  void respawn(int i);

  /// Closes every worker fd (workers see EOF and exit) and waits for each
  /// live worker; one still running 5 s later is SIGKILLed and reaped.
  /// Returns with no worker process left.
  void shutdown();

  std::uint64_t spawned() const { return spawned_; }
  std::uint64_t deaths() const { return deaths_; }

 private:
  struct Worker {
    int fd = -1;
    int pid = -1;
    FrameReader reader;
    std::optional<pipeline::Fingerprint> inflight;  // the assigned ticket
  };

  void spawn(Worker& worker);

  WorkerOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t spawned_ = 0;
  std::uint64_t deaths_ = 0;
};

}  // namespace osim::serve
