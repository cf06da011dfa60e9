#include "common/signals.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

namespace osim {
namespace {

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_child_exited{false};

// Self-pipe shared by every handler in this module. -1 until
// signal_wake_fd() creates it; the write is skipped while unset, so
// handlers stay correct whether or not anyone polls.
std::atomic<int> g_wake_write_fd{-1};
int g_wake_read_fd = -1;

void wake_pollers() {
  // Async-signal-safe: one write to a non-blocking pipe. A full pipe
  // (EAGAIN) is fine — the poller is already due a wakeup.
  const int fd = g_wake_write_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t rc = write(fd, &byte, 1);
  }
}

extern "C" void osim_shutdown_handler(int signum) {
  // Second signal: restore the default disposition and re-raise, so a
  // stuck drain can still be killed interactively. Everything here is
  // async-signal-safe (atomics, sigaction, raise, write).
  if (g_shutdown.exchange(true, std::memory_order_relaxed)) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
  wake_pollers();
}

extern "C" void osim_sigchld_handler(int) {
  g_child_exited.store(true, std::memory_order_relaxed);
  wake_pollers();
}

void make_wake_pipe() {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) return;
  for (const int fd : fds) {
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    fcntl(fd, F_SETFD, fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
  }
  g_wake_read_fd = fds[0];
  g_wake_write_fd.store(fds[1], std::memory_order_relaxed);
}

}  // namespace

void install_graceful_shutdown() {
  struct sigaction action = {};
  action.sa_handler = &osim_shutdown_handler;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: a study blocked in a slow read should see EINTR and
  // reach its next cancellation poll instead of sleeping through it.
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

const std::atomic<bool>* shutdown_flag() { return &g_shutdown; }

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void ignore_sigpipe() {
  struct sigaction action = {};
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

int signal_wake_fd() {
  if (g_wake_read_fd < 0) make_wake_pipe();
  return g_wake_read_fd;
}

void drain_signal_wake_fd() {
  if (g_wake_read_fd < 0) return;
  char buf[64];
  while (read(g_wake_read_fd, buf, sizeof(buf)) > 0) {
  }
}

void install_child_reaper() {
  struct sigaction action = {};
  action.sa_handler = &osim_sigchld_handler;
  sigemptyset(&action.sa_mask);
  // SA_NOCLDSTOP: only exits, not job-control stops, concern a reaper.
  // No SA_RESTART, same reasoning as the shutdown handler.
  action.sa_flags = SA_NOCLDSTOP;
  sigaction(SIGCHLD, &action, nullptr);
}

bool child_exit_pending() {
  return g_child_exited.load(std::memory_order_relaxed);
}

std::vector<ReapedChild> reap_children() {
  std::vector<ReapedChild> reaped;
  // Clear the flag before reaping: a SIGCHLD that lands mid-loop re-raises
  // it, and the already-exited child is still collected by this WNOHANG
  // sweep — so an exit is never lost between the flag and the wait.
  g_child_exited.store(false, std::memory_order_relaxed);
  while (true) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    reaped.push_back(ReapedChild{static_cast<int>(pid), status});
  }
  return reaped;
}

}  // namespace osim
