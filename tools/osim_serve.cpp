// osim_serve — the always-on analysis service (controller process).
//
// Runs the controller/worker daemon described in DESIGN.md §3.10: clients
// (osim_client, or anything speaking OSIMRPC1) submit scenarios over a
// Unix-domain socket, the controller dedupes them by scenario fingerprint
// and hands them one at a time to forked worker processes that run the
// ordinary replay pipeline with the scenario store as the warm tier.
//
//   osim_serve --socket /tmp/osim.sock --workers 4 --cache-dir ~/.cache/osim
//
// With a store, finished reports persist as store objects: a restarted
// service on the same --cache-dir answers them without recomputing.
//
// Exit codes follow common/exit_codes.hpp: 0 after a shutdown RPC, 2 bad
// command line, 5 after a SIGTERM/SIGINT drain (running jobs finished,
// queue cancelled, every waiter answered).
//
// The --worker mode is internal: the controller re-execs this binary with
// --worker --worker-fd 3 to spawn each worker process.
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/signals.hpp"
#include "serve/controller.hpp"
#include "serve/worker.hpp"

namespace {

// The path the controller re-execs for worker processes: the running
// binary itself, resolved through /proc where available so a PATH-relative
// argv[0] still works.
std::string self_binary(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
#endif
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace osim;

  std::string socket_path;
  std::int64_t workers = 2;
  std::string cache_dir;
  std::int64_t max_queue = 64;
  std::int64_t max_inflight_bytes = std::int64_t{256} << 20;
  std::int64_t max_retries = 2;
  std::int64_t report_cache = 64;
  bool worker = false;
  std::int64_t worker_fd = -1;

  Flags flags(
      "osim_serve: the always-on analysis service (submit scenarios with "
      "osim_client)");
  flags.add("socket", &socket_path,
            "Unix-domain socket to listen on (required)");
  flags.add("workers", &workers, "worker processes");
  flags.add("cache-dir", &cache_dir,
            "scenario store directory (default: none; the service's "
            "durable tier)");
  flags.add("max-queue", &max_queue,
            "admission control: refuse submits beyond this many queued "
            "jobs (exit code 6 at the client)");
  flags.add("max-inflight-bytes", &max_inflight_bytes,
            "admission control: refuse submits once queued trace files "
            "exceed this many bytes");
  flags.add("max-retries", &max_retries,
            "worker deaths tolerated per job before it is failed");
  flags.add("report-cache", &report_cache,
            "completed reports kept in memory (older ones served from the "
            "store)");
  flags.add("worker", &worker, "internal: run as a worker process");
  flags.add("worker-fd", &worker_fd, "internal: the worker's job socket fd");
  if (!flags.parse(argc, argv)) return 0;

  if (worker) {
    if (worker_fd < 0) throw UsageError("--worker requires --worker-fd");
    ignore_sigpipe();
    return serve::run_worker_loop(static_cast<int>(worker_fd), cache_dir);
  }

  if (socket_path.empty()) throw UsageError("--socket is required");
  constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  require_flag_range("workers", workers, 1, kMaxInt32);
  require_flag_range("max-retries", max_retries, 0, kMaxInt32);
  require_flag_range("max-queue", max_queue, 0, kMax);
  require_flag_range("max-inflight-bytes", max_inflight_bytes, 0, kMax);
  require_flag_range("report-cache", report_cache, 0, kMax);

  serve::ControllerOptions options;
  options.socket_path = socket_path;
  options.workers = static_cast<int>(workers);
  options.serve_binary = self_binary(argc > 0 ? argv[0] : nullptr);
  options.cache_dir = cache_dir;
  options.max_queue = max_queue;
  options.max_inflight_bytes = max_inflight_bytes;
  options.max_retries = static_cast<int>(max_retries);
  options.report_cache_entries = report_cache;

  std::fprintf(stderr,
               "osim_serve: listening on %s (%lld worker(s)%s%s)\n",
               socket_path.c_str(), static_cast<long long>(workers),
               options.cache_dir.empty() ? "" : ", store ",
               options.cache_dir.c_str());

  serve::Controller controller(options);
  return controller.run();
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
