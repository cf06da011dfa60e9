// ScenarioStore — a persistent, content-addressed artifact store.
//
// The disk tier of the replay cache (see pipeline::Study): objects are
// keyed by pipeline::Fingerprint and live at
//
//   <root>/objects/<first 2 hex digits>/<32 hex digits>
//
// alongside a small LRU index (<root>/index.osim) and an advisory lock
// file (<root>/lock). The store is safe to share between concurrent
// processes and threads:
//
//   publication  objects are written to <root>/tmp and renamed into place,
//                so a reader only ever sees absent or complete files;
//   index        every read-modify-write of the index happens under an
//                exclusive advisory flock on <root>/lock, and the index is
//                itself published by rename;
//   reads        load() needs neither the lock nor the index — the object
//                path is derived from the key alone, which is what makes
//                a gc'd, hand-pruned or half-indexed store merely slower,
//                never wrong.
//
// Damage never propagates: a corrupt or version-skewed object decodes to
// a miss (strict CRC, see store/format.hpp), and a damaged index is
// rebuilt from a directory scan. The index is metadata only — byte sizes,
// hit counts and a logical LRU clock used by gc() — so losing it loses
// recency, not results.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/fingerprint.hpp"
#include "store/format.hpp"

namespace osim::store {

/// Store-wide totals, as recorded in the index (reconciled with the object
/// tree on load, so stale entries do not inflate the numbers).
struct StoreStats {
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total_hits = 0;  // lifetime disk hits recorded in the index
  std::uint64_t clock = 0;       // logical LRU clock (advances per access)
  bool index_rebuilt = false;    // index was missing/damaged and rebuilt
};

struct VerifyIssue {
  std::string path;  // relative to the store root
  std::string message;
};

/// Full-scan integrity report: every object decoded and checked against
/// its address, plus the index header.
struct VerifyReport {
  std::uint64_t objects_checked = 0;
  std::uint64_t objects_ok = 0;
  std::vector<VerifyIssue> issues;

  bool clean() const { return issues.empty(); }
  std::string render_text() const;
};

struct GcReport {
  std::uint64_t objects_before = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t objects_removed = 0;  // evicted + corrupt + stale
  std::uint64_t bytes_removed = 0;
  std::uint64_t objects_kept = 0;
  std::uint64_t bytes_kept = 0;
};

/// Temp files older than this are orphans of a crashed publication and
/// are swept when a store opens; anything younger may belong to a live
/// writer mid-rename.
inline constexpr std::chrono::seconds kStaleTmpMaxAge =
    std::chrono::seconds(3600);

class ScenarioStore {
 public:
  /// Opens (creating if needed) the store rooted at `root`; throws
  /// osim::Error when the directory tree cannot be created. Sweeps stale
  /// tmp files (older than kStaleTmpMaxAge) left behind by crashed
  /// publications.
  explicit ScenarioStore(std::string root);

  /// Removes `<root>/tmp` entries older than `max_age`; returns how many
  /// were removed. Exposed for tests and maintenance tools; the
  /// constructor calls it with kStaleTmpMaxAge. Never throws — an
  /// unsweepable orphan is tomorrow's problem, not today's error.
  static std::size_t sweep_stale_tmp(const std::string& root,
                                     std::chrono::seconds max_age);

  const std::string& root() const { return root_; }

  /// Strict read-through lookup. A hit bumps the object's LRU slot in the
  /// index; a corrupt, truncated or version-skewed object counts as a miss
  /// (and as a reject, see rejects()). Never throws on object damage.
  std::optional<ScenarioArtifact> load(const pipeline::Fingerprint& fp);

  /// Publishes `artifact` under `fp` (write temp + rename, then index
  /// update). Overwrites any previous object at the same address — replay
  /// is pure, so an overwrite is bit-identical anyway. Throws osim::Error
  /// on I/O failure; callers on the write-behind path treat that as a
  /// warning, not an error (the result is already computed).
  void save(const pipeline::Fingerprint& fp, const ScenarioArtifact& artifact);

  /// Lint-report twin of load(): strict read-through lookup of a cached
  /// lint report (object kind "OSIMLNT1"). Shares the object tree, index
  /// and LRU policy with replay artifacts.
  std::optional<lint::Report> load_lint(const pipeline::Fingerprint& fp);

  /// Lint-report twin of save().
  void save_lint(const pipeline::Fingerprint& fp, const lint::Report& report);

  /// Run-report twin of load(): strict read-through lookup of a cached
  /// JSON run report (object kind "OSIMRPT1"), keyed by the *scenario*
  /// fingerprint — the report_address() derivation happens inside, so
  /// callers never handle report addresses directly.
  std::optional<std::string> load_report(const pipeline::Fingerprint& scenario);

  /// Run-report twin of save(); stores the JSON bytes verbatim.
  void save_report(const pipeline::Fingerprint& scenario,
                   std::string_view report_json);

  /// Absolute object path for `fp` (the file may or may not exist).
  std::string object_path(const pipeline::Fingerprint& fp) const;

  StoreStats stats();
  VerifyReport verify();

  /// Evicts least-recently-used objects until the store holds at most
  /// `max_bytes` of objects (and at most `max_objects` objects, when
  /// non-zero). Corrupt objects and stale index entries are always
  /// removed. max_bytes == 0 empties the store.
  GcReport gc(std::uint64_t max_bytes, std::uint64_t max_objects = 0);

  // Process-local probe counters (thread-safe).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Objects that existed but failed the strict decode and were therefore
  /// served as misses. Also counted in misses().
  std::uint64_t rejects() const;

 private:
  struct IndexEntry {
    pipeline::Fingerprint fp;
    std::uint64_t bytes = 0;
    std::uint64_t last_access = 0;  // logical clock tick; 0 = never/unknown
    std::uint64_t hits = 0;
  };
  struct Index {
    std::uint64_t clock = 0;
    std::vector<IndexEntry> entries;
    bool rebuilt = false;
  };

  /// Reads and decodes the object at `fp`, counting a hit (and bumping
  /// its LRU slot) or a miss; damaged or mis-addressed objects are misses.
  template <class Decoded>
  std::optional<Decoded> fetch(
      const pipeline::Fingerprint& fp,
      std::optional<Decoded> (*decode)(std::string_view));
  /// Publishes encoded object bytes at `fp` and records them in the index.
  void publish(const pipeline::Fingerprint& fp, const std::string& bytes);
  /// Advances the LRU clock and stamps `fp`'s index entry (adding it on a
  /// save, counting a hit on a load).
  void record_access(const pipeline::Fingerprint& fp, std::uint64_t bytes,
                     bool hit);

  Index reconciled_index();  // call with the store lock held
  void write_index(const Index& index);
  std::vector<pipeline::Fingerprint> scan_objects() const;

  std::string root_;
  mutable std::mutex mutex_;  // guards the counters
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejects_ = 0;
};

/// Cache-directory resolution shared by StudyOptions::cache_dir and the
/// CLI --cache-dir flags: the explicit value wins, then $OSIM_CACHE_DIR,
/// then "" (disk tier off).
std::string resolve_cache_dir(std::string explicit_dir);

}  // namespace osim::store
