// Write-ahead study journal: the durable record of a sweep's control
// state, living next to the scenario objects in the store root
// (<root>/journals/<study-fingerprint>.osimjrn). Where the store answers
// "what did this scenario compute", the journal answers "which scenarios
// of THIS study reached a terminal status" — the piece --resume needs to
// skip work after a kill -9 without trusting anything volatile.
//
// On-disk layout (fixed-width little-endian, common/bytes.hpp). The
// journal does not use the store's object envelope: it is framed per
// record so that appends never rewrite earlier bytes.
//
//   header (32 bytes):
//     magic "OSIMJRN1" (8)
//     u32 journal version (kJournalVersion)
//     u64 study.hi, u64 study.lo       (the study fingerprint)
//     u32 CRC-32 over the 20 bytes after the magic
//   records, each:
//     u32 payload_bytes (P, 1..kMaxPayloadBytes = 4096)
//     payload (P bytes):
//       u8 kind — 0 = scenario terminal status, 1 = study complete
//       kind 0: u64 fp.hi, u64 fp.lo, u8 status (<= kSkippedResume),
//               f64 makespan, f64 fault_wait_s, f64 progress_wait_s,
//               f64 partial_blocked_s, then the faults::Counts codec
//               (faults/model.hpp, shared with store objects)
//     u32 CRC-32 over the payload
//
// Reading is salvage-style and total: the longest valid prefix wins, and
// anything after it (a record torn by a crash mid-append) is truncated
// away on open. A bad or alien header means "fresh journal", never an
// error — the journal is an accelerator, exactly like the store.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "faults/model.hpp"
#include "pipeline/fingerprint.hpp"

namespace osim::supervise {

inline constexpr std::string_view kJournalMagic = "OSIMJRN1";
inline constexpr std::uint32_t kJournalVersion = 1;

/// Terminal status of one scenario within a supervised study.
enum class ScenarioStatus : std::uint8_t {
  kOk = 0,             ///< replay completed; result is cached/cacheable
  kTimeout = 1,        ///< stopped by --scenario-timeout; partial result
  kCancelled = 2,      ///< stopped by SIGINT/SIGTERM or --study-deadline
  kFailed = 3,         ///< replay threw (bad trace, deadlock, ...)
  kSkippedResume = 4,  ///< served from a previous run's journal (--resume)
};

/// Stable wire/report names: ok|timeout|cancelled|failed|skipped-resume.
const char* scenario_status_name(ScenarioStatus status);

/// The journal key: a fingerprint of the caller-supplied study identity
/// string (bench name + the sweep-shaping flags). Uses the same two-lane
/// FNV-1a construction as scenario fingerprints so collisions need both
/// 64-bit lanes to collide at once.
pipeline::Fingerprint study_fingerprint(std::string_view study_id);

/// One journaled scenario outcome. For kOk the makespan/wait fields echo
/// the cached artifact (so --resume can serve results journal-only); for
/// kTimeout/kCancelled they hold the partial progress at the stop.
struct JournalEntry {
  pipeline::Fingerprint fingerprint;
  ScenarioStatus status = ScenarioStatus::kOk;
  double makespan = 0.0;
  double fault_wait_s = 0.0;
  double progress_wait_s = 0.0;
  /// Total per-rank blocked time at the stop (partial wait attribution);
  /// zero for completed scenarios.
  double partial_blocked_s = 0.0;
  faults::Counts fault_counts;

  friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
};

/// An append-only journal for one study. Opening replays the existing file
/// (salvaging the longest valid prefix); append() is thread-safe and
/// flushes each record, so a SIGKILL between appends loses nothing and a
/// SIGKILL mid-append loses only the torn record.
class StudyJournal {
 public:
  /// Where the journal for `study` lives under store root `root`.
  static std::string path_for(const std::string& root,
                              const pipeline::Fingerprint& study);

  /// Opens (creating directories and the file as needed) the journal for
  /// `study` under store root `root`. Throws osim::Error when the file
  /// cannot be created or written.
  StudyJournal(const std::string& root, const pipeline::Fingerprint& study);
  ~StudyJournal();

  StudyJournal(const StudyJournal&) = delete;
  StudyJournal& operator=(const StudyJournal&) = delete;

  const pipeline::Fingerprint& study() const { return study_; }
  const std::string& path() const { return path_; }

  /// Entries salvaged from disk at open time, in append order. Not updated
  /// by append() — callers index what they replayed themselves.
  const std::vector<JournalEntry>& recovered() const { return recovered_; }

  /// True when a study-complete marker was recovered: the study this
  /// journal describes finished its sweep, so gc may evict the journal.
  bool recovered_complete() const { return recovered_complete_; }

  /// Appends one scenario outcome (thread-safe, flushed before returning).
  void append(const JournalEntry& entry);

  /// Appends the study-complete marker.
  void append_complete();

 private:
  void write_record(const std::string& payload);

  pipeline::Fingerprint study_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  std::vector<JournalEntry> recovered_;
  bool recovered_complete_ = false;
};

/// Summary of one journal file, as listed by `osim_cache stats --journals`.
struct JournalInfo {
  std::string path;
  pipeline::Fingerprint study;
  std::uint64_t bytes = 0;
  std::size_t entries = 0;     ///< valid scenario records
  std::size_t ok = 0;          ///< entries with status ok
  bool complete = false;       ///< study-complete marker present
  bool valid = false;          ///< header parsed (invalid files still list)
};

/// Lists every journal under `<root>/journals`, sorted by path.
std::vector<JournalInfo> list_journals(const std::string& root);

/// Removes journals of finished studies (complete marker present) and
/// unreadable journal files; in-progress journals are kept. Returns the
/// number of files removed.
std::size_t gc_journals(const std::string& root);

}  // namespace osim::supervise
