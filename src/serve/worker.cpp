#include "serve/worker.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::serve {

namespace {

/// How long shutdown() waits for workers to exit before killing them.
constexpr std::chrono::seconds kShutdownGrace{5};

// write() the whole buffer, riding out EINTR, partial writes and (on the
// controller's non-blocking ends) momentarily full socket buffers.
bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  int stalls = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Bounded: a peer that stops draining for 30s is treated as dead
        // rather than wedging the writer forever.
        if (++stalls > 30) return false;
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, 1000 /* ms */);
        continue;
      }
      return false;
    }
    stalls = 0;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int run_worker_loop(int fd, const std::string& cache_dir) {
  std::unique_ptr<store::ScenarioStore> store;
  if (!cache_dir.empty()) {
    try {
      store = std::make_unique<store::ScenarioStore>(cache_dir);
    } catch (const std::exception&) {
      // A broken cache demotes the worker to uncached, never kills it.
      store = nullptr;
    }
  }

  FrameReader reader;
  char buffer[64 * 1024];
  int exit_code = 0;
  for (;;) {
    std::optional<std::string> payload;
    while (!(payload = reader.next()).has_value()) {
      if (reader.error()) {
        exit_code = 1;
        goto out;
      }
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        exit_code = 1;
        goto out;
      }
      if (n == 0) goto out;  // controller closed: clean shutdown
      reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }

    {
      const std::optional<JobRequest> request = decode_job_request(*payload);
      if (!request.has_value()) {
        exit_code = 1;
        goto out;
      }
      JobOutcome outcome = run_job(request->spec, store.get());
      const JobResult result{request->ticket, outcome.ok,
                             std::move(outcome.report_json),
                             std::move(outcome.error)};
      std::string frame;
      append_frame(frame, encode_job_result(result));
      if (!write_all(fd, frame)) {
        exit_code = 1;
        goto out;
      }
    }
  }
out:
  ::close(fd);
  return exit_code;
}

WorkerPool::WorkerPool(WorkerOptions options) : options_(std::move(options)) {
  OSIM_CHECK(options_.count >= 1);
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::start() {
  while (static_cast<int>(workers_.size()) < options_.count) {
    auto worker = std::make_unique<Worker>();
    spawn(*worker);
    workers_.push_back(std::move(worker));
  }
}

void WorkerPool::spawn(Worker& worker) {
  if (options_.serve_binary.empty()) {
    throw Error("workers need the server binary path");
  }
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw Error(strprintf("socketpair failed: %s", std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw Error(strprintf("fork failed: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: job socket on a fixed fd, then a fresh address space.
    ::close(sv[0]);
    if (::dup2(sv[1], 3) < 0) _exit(127);
    if (sv[1] != 3) ::close(sv[1]);
    const char* argv[8];
    int argc = 0;
    argv[argc++] = options_.serve_binary.c_str();
    argv[argc++] = "--worker";
    argv[argc++] = "--worker-fd";
    argv[argc++] = "3";
    if (!options_.cache_dir.empty()) {
      argv[argc++] = "--cache-dir";
      argv[argc++] = options_.cache_dir.c_str();
    }
    argv[argc] = nullptr;
    ::execv(options_.serve_binary.c_str(),
            const_cast<char* const*>(argv));
    _exit(127);
  }
  ::close(sv[1]);
  // The controller's end must not leak into later workers' exec images,
  // and its reads must never block the event loop.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
  worker.fd = sv[0];
  worker.pid = static_cast<int>(pid);
  worker.reader = FrameReader();
  worker.inflight.reset();
  ++spawned_;
}

int WorkerPool::idle_worker() const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->fd >= 0 && !workers_[i]->inflight.has_value()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int WorkerPool::busy_workers() const {
  int busy = 0;
  for (const auto& worker : workers_) {
    if (worker->fd >= 0 && worker->inflight.has_value()) ++busy;
  }
  return busy;
}

void WorkerPool::assign(int i, const JobRequest& request) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  OSIM_CHECK(!worker.inflight.has_value());
  std::string frame;
  append_frame(frame, encode_job_request(request));
  worker.inflight = request.ticket;
  if (!write_all(worker.fd, frame)) {
    // A dead worker at assign time surfaces through on_readable/reap; the
    // job stays in `inflight` so take_inflight() requeues it.
  }
}

std::vector<JobResult> WorkerPool::on_readable(int i, bool& dead) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  dead = false;
  std::vector<JobResult> results;
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(worker.fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dead = true;
      break;
    }
    if (n == 0) {
      dead = true;
      break;
    }
    worker.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    // A worker that filled one read() buffer exactly may have more bytes
    // pending, but frames drain below either way; looping again would
    // block on an empty socket, so stop after a short read.
    if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
  }
  while (std::optional<std::string> payload = worker.reader.next()) {
    const std::optional<JobResult> result = decode_job_result(*payload);
    if (!result.has_value()) {
      dead = true;  // protocol violation: treat as a worker death
      break;
    }
    if (worker.inflight == result->ticket) worker.inflight.reset();
    results.push_back(*result);
  }
  if (worker.reader.error()) dead = true;
  return results;
}

std::optional<pipeline::Fingerprint> WorkerPool::take_inflight(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  return std::exchange(worker.inflight, std::nullopt);
}

int WorkerPool::worker_by_pid(int pid) const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->pid == pid) return static_cast<int>(i);
  }
  return -1;
}

void WorkerPool::mark_dead(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  worker.pid = -1;
  ++deaths_;
}

void WorkerPool::respawn(int i) {
  Worker& worker = *workers_[static_cast<std::size_t>(i)];
  if (worker.fd >= 0) return;  // still alive; nothing to do
  spawn(worker);
}

void WorkerPool::shutdown() {
  for (auto& worker : workers_) {
    if (worker->fd >= 0) {
      ::close(worker->fd);
      worker->fd = -1;
    }
    worker->inflight.reset();
  }
  // An idle worker exits at EOF within milliseconds; one still inside a
  // job gets the rest of the deadline, then SIGKILL. Either way no worker
  // outlives the pool.
  const auto deadline = std::chrono::steady_clock::now() + kShutdownGrace;
  for (auto& worker : workers_) {
    if (worker->pid < 0) continue;
    const pid_t pid = static_cast<pid_t>(worker->pid);
    worker->pid = -1;
    for (;;) {
      const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
      if (got == pid || (got < 0 && errno != EINTR)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

}  // namespace osim::serve
