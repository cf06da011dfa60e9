// Shared command-line surface for every binary that runs replays: the
// bench executables, osim_replay and osim_lint all take the same trio of
// execution flags (--jobs, --cache-dir, --perf-json) plus a JSON report
// path whose name varies per binary ("study-report" for benches, "report"
// for osim_replay; osim_lint has no report file at all). Before this
// struct, each binary registered its own copies and the help strings had
// drifted; now they register one RunOptions and the flags stay word-for-
// word identical everywhere (unknown-flag typos still get common/Flags'
// "did you mean" suggestions for free).
//
// --perf-json writes a small machine-readable performance record of the
// invocation (wall clock, CPU time, peak RSS, plus tool-specific counters)
// — the lightweight sibling of the tools/osim_perf harness, for tracking a
// single run instead of a calibrated benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"

namespace osim {

struct RunOptions {
  /// Parallel jobs for Study / lint pools (0 = one per hardware thread).
  std::int64_t jobs = 1;
  /// Persistent scenario store directory (empty = no disk tier).
  std::string cache_dir;
  /// JSON report path; the flag name is per-binary (see register_flags).
  std::string report;
  /// Performance record path (--perf-json); empty = don't write one.
  std::string perf_json;

  // --- Supervision (register_supervision_flags; all off by default, and
  // when off the run is byte-identical to a pre-supervision binary) ---

  /// Per-scenario wall-clock budget in seconds (0 = unbounded).
  double scenario_timeout_s = 0.0;
  /// Whole-run wall-clock budget in seconds (0 = unbounded).
  double study_deadline_s = 0.0;
  /// Emit the canonical study report (deterministic fields only), so a
  /// killed run finished by a rerun on the same store can be diffed
  /// against an uninterrupted one.
  bool canonical_report = false;

  /// Registers the shared flags. `report_flag` names this binary's report
  /// flag ("study-report", "report", ...) with `report_help` as its help
  /// text; pass report_flag == nullptr for binaries without a report file.
  void register_flags(Flags& flags, const char* report_flag,
                      const std::string& report_help);

  /// Registers the supervision flags (--scenario-timeout, --study-deadline,
  /// --canonical-report). Separate from register_flags so binaries adopt
  /// supervision deliberately.
  void register_supervision_flags(Flags& flags);

  /// True when any supervision flag was set — callers use this to decide
  /// whether to install signal handlers and emit status fields.
  bool supervision_requested() const;

  /// --jobs with the 0 = hardware-threads convention resolved.
  int resolved_jobs() const;
};

/// Wall-clock + rusage performance record written by --perf-json. Construct
/// at startup (it samples the clock), add() tool-specific counters, then
/// write_if() at exit.
class PerfRecorder {
 public:
  /// `tool` is recorded verbatim (binary name, e.g. "osim_replay").
  explicit PerfRecorder(std::string tool);

  /// Adds a tool-specific numeric counter (insertion order is preserved).
  void add(const std::string& key, double value);

  /// Writes the record to `path`; no-op when `path` is empty. Throws
  /// osim::Error if the file cannot be written.
  void write_if(const std::string& path) const;

 private:
  std::string tool_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> counters_;
};

}  // namespace osim
