// The controller of the analysis service — the slurmctld side.
//
// One single-threaded poll() event loop owns every piece of state: client
// connections (on one Unix-domain socket), the job table, the per-client
// round-robin queues, and the worker pool. No replay runs in this process
// — workers do the heavy lifting across socketpairs, one scenario at a
// time each — so the controller stays responsive at any queue depth and a
// worker death never takes the bookkeeping with it.
//
// What the loop guarantees:
//
//   dedupe      jobs are keyed by ticket (serve::spec_fingerprint). Two
//               clients submitting the same (trace, platform, options)
//               share one replay; a scenario the store already holds a
//               report for is answered without any replay at all.
//   fairness    each client has its own FIFO; the scheduler round-robins
//               across clients, so one client's thousand submits cannot
//               starve another's one.
//   admission   submits beyond max_queue queued jobs or max_inflight_bytes
//               of queued trace bytes are refused with kBusy (the client
//               exits with code 6 and may retry later) instead of growing
//               the queue without bound.
//   retries     a worker death (SIGKILL, OOM, crash) requeues its in-
//               flight job at the front; a job that kills max_retries+1
//               workers in a row is failed, not retried forever.
//   durability  with a store, finished reports persist as store objects
//               (kind "OSIMRPT1", addressed by ticket) — a restarted
//               controller answers those scenarios from disk without
//               recomputing.
//   drain       SIGTERM/SIGINT stop intake, let running jobs finish,
//               cancel the queue, answer every waiter, and exit with code
//               5 (common/exit_codes.hpp); the shutdown RPC does the same
//               with exit code 0.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace osim::serve {

struct ControllerOptions {
  /// Unix-domain socket path (required).
  std::string socket_path;
  /// Worker processes; at least 1.
  int workers = 2;
  /// This binary's path: every worker is a fork+exec of it.
  std::string serve_binary;
  /// Scenario store root ('' = no disk tier: no report objects, no lint
  /// cache).
  std::string cache_dir;
  /// Admission control: refuse submits beyond this many queued jobs...
  std::int64_t max_queue = 64;
  /// ...or once the queued jobs' trace files sum past this many bytes.
  std::int64_t max_inflight_bytes = std::int64_t{256} << 20;
  /// Worker deaths tolerated per job before it is failed.
  int max_retries = 2;
  /// Completed jobs kept in memory; older ones fall back to the store.
  std::int64_t report_cache_entries = 64;
};

class Controller {
 public:
  explicit Controller(ControllerOptions options);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Binds, listens and runs the event loop until shutdown. Returns the
  /// process exit code: 0 after a shutdown RPC, kExitInterrupted (5) after
  /// a SIGTERM/SIGINT drain. Throws osim::Error when the service cannot
  /// start (socket in use, workers unspawnable, ...).
  int run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace osim::serve
