// Cooperative cancellation for long replays: a CancelToken bundles an
// optional external stop flag (SIGINT/SIGTERM, a supervisor's kill switch)
// with optional wall-clock deadlines — one for the scenario being replayed
// and one for the whole study. The replay event loop polls check() on an
// amortized stride (dimemas/replay.cpp, kCancelPollStride) and unwinds by
// throwing CancelledError, which carries the cause plus the partial
// progress accumulated so far so a supervisor can still attribute wait
// time for a scenario it had to abandon.
//
// Header-only and pointer-based on purpose: ReplayOptions stores a
// `const CancelToken*` that is NOT part of the scenario fingerprint
// (pipeline/context.cpp hashes fields explicitly), so arming a watchdog
// never changes what a scenario *is* — only whether it ran to completion.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/expect.hpp"

namespace osim {

/// Why a replay was stopped before completion.
enum class StopCause : std::uint8_t {
  kNone = 0,
  /// The external stop flag was raised (SIGINT/SIGTERM, supervisor).
  kCancel = 1,
  /// The per-scenario wall-clock budget expired (--scenario-timeout).
  kScenarioTimeout = 2,
  /// The whole-study wall-clock budget expired (--study-deadline).
  kStudyDeadline = 3,
};

inline const char* stop_cause_name(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kCancel: return "cancel";
    case StopCause::kScenarioTimeout: return "scenario-timeout";
    case StopCause::kStudyDeadline: return "study-deadline";
  }
  return "unknown";
}

/// What a replay had simulated when it was stopped. All values are partial
/// sums over the event prefix that did run; they are NOT comparable with a
/// completed replay's results and are never cached.
struct PartialProgress {
  double sim_time_s = 0.0;     ///< simulated clock when stopped
  std::uint64_t des_events = 0;  ///< DES events processed so far
  double compute_s = 0.0;      ///< total per-rank compute simulated
  double blocked_s = 0.0;      ///< total per-rank blocked time (incl. spans
                               ///< still open when the replay stopped)
  std::int64_t ranks_finished = 0;  ///< ranks that reached their trace end
};

/// Cooperative stop signal polled from replay loops. Copyable; the
/// referenced flag must outlive every copy. Deadlines are absolute
/// steady_clock points (time_point::max() = unbounded) so a token can be
/// armed once per scenario while the study deadline stays shared.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  /// `flag` may be null (no external stop source).
  explicit CancelToken(const std::atomic<bool>* flag) : flag_(flag) {}

  void set_scenario_deadline(Clock::time_point deadline) {
    scenario_deadline_ = deadline;
  }
  void set_study_deadline(Clock::time_point deadline) {
    study_deadline_ = deadline;
  }

  /// True when any stop source is configured — callers can skip polling
  /// entirely for unarmed tokens (the default-path fast case).
  bool armed() const {
    return flag_ != nullptr ||
           scenario_deadline_ != Clock::time_point::max() ||
           study_deadline_ != Clock::time_point::max();
  }

  /// The first stop source that fired, or kNone. Flag beats deadlines
  /// (an interactive Ctrl-C should read "cancelled", not "timeout");
  /// the study deadline beats the scenario one (the broader budget is
  /// the one the supervisor acts on).
  StopCause check() const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
      return StopCause::kCancel;
    }
    if (scenario_deadline_ == Clock::time_point::max() &&
        study_deadline_ == Clock::time_point::max()) {
      return StopCause::kNone;
    }
    const Clock::time_point now = Clock::now();
    if (now >= study_deadline_) return StopCause::kStudyDeadline;
    if (now >= scenario_deadline_) return StopCause::kScenarioTimeout;
    return StopCause::kNone;
  }

 private:
  const std::atomic<bool>* flag_ = nullptr;
  Clock::time_point scenario_deadline_ = Clock::time_point::max();
  Clock::time_point study_deadline_ = Clock::time_point::max();
};

/// The steady-clock point `seconds` (> 0) from now: a wall-clock budget's
/// deadline. Saturating: a budget of a billion seconds or more (~31 years)
/// is unbounded, time_point::max(), so converting it can never overflow.
inline CancelToken::Clock::time_point deadline_after(double seconds) {
  using Clock = CancelToken::Clock;
  if (!(seconds < 1e9)) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Thrown by dimemas::replay when its CancelToken fires. Derives from
/// osim::Error so unsupervised callers that catch Error keep working; the
/// supervised Study catches this type specifically to record the scenario
/// as timeout/cancelled with its partial wait attribution.
class CancelledError : public Error {
 public:
  CancelledError(StopCause cause, const PartialProgress& partial)
      : Error(std::string("replay stopped: ") + stop_cause_name(cause)),
        cause_(cause),
        partial_(partial) {}

  StopCause cause() const { return cause_; }
  const PartialProgress& partial() const { return partial_; }

 private:
  StopCause cause_;
  PartialProgress partial_;
};

}  // namespace osim
