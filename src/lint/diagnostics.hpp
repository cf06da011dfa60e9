// Structured diagnostics for the trace semantic verifier.
//
// Every lint pass reports findings as Diagnostic values instead of throwing
// on the first problem: a single run surfaces *all* defects, each anchored
// to the rank and record index that caused it, so a broken transform or
// tracer bug can be located without bisecting the trace by hand. The same
// reports are the replayer's structural check (lint::check_structure),
// whose errors pipeline::ReplayContext renders into its exception.
//
// Diagnostics carry an optional machine-stable `code` (a short slug such as
// "zero-window" or "wildcard-race" that tools may key on) and an optional
// `evidence` string (for the happens-before passes: the vector clocks that
// witness the finding). Both are empty for the classic passes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace osim::metrics {
class JsonWriter;
}  // namespace osim::metrics

namespace osim::lint {

enum class Severity : std::uint8_t {
  kInfo,     // advisory only (e.g. a zero-width overlap window); never
             // fails a run and does not make a report un-clean
  kWarning,  // suspicious but replayable (e.g. differing collective sizes)
  kError,    // the trace is semantically broken; replay garbage or deadlock
};

const char* severity_name(Severity severity);

/// Record index value for diagnostics that are not tied to one record.
inline constexpr std::ptrdiff_t kNoRecord = -1;

/// Version of the JSON document emitted by Report::render_json(); bump on
/// any incompatible change to the schema below or to what the passes
/// report. Version 2: the overlap pass collapses its advisories into
/// per-rank counts plus exemplars (lint/overlap_hazards.hpp).
inline constexpr int kLintReportVersion = 2;

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string pass;          // "match", "requests", "deadlock", ...
  std::string code;          // stable finding slug; "" for classic passes
  trace::Rank rank = -1;     // -1: cross-rank / whole-trace finding
  std::ptrdiff_t record = kNoRecord;  // index into the rank's record stream
  std::string message;
  std::string evidence;      // clock evidence for HB findings; may be ""
};

/// Accumulates diagnostics across passes; render as text, CSV or JSON.
class Report {
 public:
  void error(std::string pass, trace::Rank rank, std::ptrdiff_t record,
             std::string message);
  void warning(std::string pass, trace::Rank rank, std::ptrdiff_t record,
               std::string message);
  void info(std::string pass, trace::Rank rank, std::ptrdiff_t record,
            std::string message);
  /// Full-fat entry point for diagnostics with a code and/or evidence.
  void add(Diagnostic diagnostic);
  /// Appends every diagnostic of `other`, preserving order.
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::size_t num_errors() const { return num_errors_; }
  std::size_t num_warnings() const { return num_warnings_; }
  std::size_t num_infos() const { return num_infos_; }
  /// A report is clean when it holds nothing at warning severity or above;
  /// info-level advisories do not spoil cleanliness.
  bool clean() const { return num_errors_ + num_warnings_ == 0; }

  /// True when the report contains a diagnostic at or above `severity`.
  bool has_at_least(Severity severity) const;

  /// One line per diagnostic: "error [match] rank 2 record 14: ...",
  /// followed by a summary line.
  std::string render_text() const;

  /// CSV with header "severity,pass,rank,record,message"; rank/record are
  /// empty for whole-trace findings.
  std::string render_csv() const;

  /// Versioned JSON document (schema "osim.lint_report"): severity counts
  /// plus one object per diagnostic with pass id, stable code, rank, record
  /// index and clock evidence. rank/record/code/evidence are omitted when
  /// absent, so the document carries no placeholder values.
  std::string render_json() const;

  /// Writes the same document as one JSON value into `w` — the "lint"
  /// block of the run and study reports.
  void write_json(metrics::JsonWriter& w) const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t num_errors_ = 0;
  std::size_t num_warnings_ = 0;
  std::size_t num_infos_ = 0;
};

}  // namespace osim::lint
