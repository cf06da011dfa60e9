// ScenarioStore — a persistent, content-addressed artifact store.
//
// The disk tier of the replay cache (see pipeline::Study): objects are
// keyed by pipeline::Fingerprint and live at
//
//   <root>/objects/<first 2 hex digits>/<32 hex digits>
//
// The object tree is the whole store: there is no index and no lock. It
// is safe to share between concurrent processes and threads:
//
//   publication  objects are written to <root>/tmp and renamed into place,
//                so a reader only ever sees absent or complete files, and
//                concurrent publications to one address rename identical
//                bytes over each other;
//   reads        the object path is derived from the key alone, and a
//                load writes nothing but a best-effort mtime stamp, so
//                hits and stats() work on a store they cannot write;
//   recency      an object's mtime is its LRU slot: publication and every
//                hit stamp it with the current time, and gc() evicts in
//                ascending (mtime, fingerprint) order. Two concurrent gc
//                runs can at worst evict more than needed.
//
// So a gc'd, hand-pruned or concurrently collected store is merely slower,
// never wrong. Damage never propagates: a corrupt or
// version-skewed object decodes to a miss (strict CRC, see
// store/format.hpp). The LRU index, `lock` file and study journals
// (`journals/`) that older versions kept at the root are inert and may be
// deleted.
//
// Because a replay is a pure function of its fingerprinted inputs, the
// object tree is also the complete record of finished work: after a crash
// it holds exactly the scenarios whose publication completed, and a rerun
// on the same root serves those and replays the rest.
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

/// Store-wide totals from a scan of the object tree.
struct StoreStats {
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
};

struct VerifyIssue {
  std::string path;  // relative to the store root
  std::string message;
};

/// Full-scan integrity report: every object decoded and checked against
/// its address.
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
  std::uint64_t objects_removed = 0;  // evicted + corrupt
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
  /// osim::Error when the objects directory cannot be created. An
  /// unwritable `<root>/tmp` is not an error here: only publication needs
  /// it, and save() reports its own failure. Sweeps stale tmp files (older
  /// than kStaleTmpMaxAge) left behind by crashed publications.
  explicit ScenarioStore(std::string root);

  /// Removes `<root>/tmp` entries older than `max_age`; returns how many
  /// were removed. Exposed for tests and maintenance tools; the
  /// constructor calls it with kStaleTmpMaxAge. Never throws — an
  /// unsweepable orphan is tomorrow's problem, not today's error.
  static std::size_t sweep_stale_tmp(const std::string& root,
                                     std::chrono::seconds max_age);

  const std::string& root() const { return root_; }

  /// Strict read-through lookup. A hit re-stamps the object's mtime (its
  /// LRU slot; a failed stamp is ignored); a corrupt, truncated or
  /// version-skewed object counts as a miss (and as a reject, see
  /// rejects()). Never throws on object damage or an unwritable store.
  std::optional<ScenarioArtifact> load(const pipeline::Fingerprint& fp);

  /// Publishes `artifact` under `fp` (write temp, stamp it with the current
  /// time, rename). Overwrites any previous object at the same address —
  /// replay is pure, so an overwrite is bit-identical anyway. Throws
  /// osim::Error on I/O failure; callers on the write-behind path treat
  /// that as a warning, not an error (the result is already computed).
  void save(const pipeline::Fingerprint& fp, const ScenarioArtifact& artifact);

  /// Lint-report twin of load(): strict read-through lookup of a cached
  /// lint report (object kind "OSIMLNT1"). Shares the object tree and LRU
  /// policy with replay artifacts.
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

  /// Object count and bytes, from a read-only scan of the object tree.
  StoreStats stats() const;
  VerifyReport verify() const;

  /// Evicts least-recently-used objects (oldest mtime first, ties broken
  /// by fingerprint) until the store holds at most `max_bytes` of objects
  /// (and at most `max_objects` objects, when non-zero). Corrupt objects
  /// are always removed. max_bytes == 0 empties the store.
  GcReport gc(std::uint64_t max_bytes, std::uint64_t max_objects = 0);

  // Process-local probe counters (thread-safe).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Objects that existed but failed the strict decode and were therefore
  /// served as misses. Also counted in misses().
  std::uint64_t rejects() const;

 private:
  /// Reads and decodes the object at `fp`, counting a hit (and stamping
  /// its mtime) or a miss; damaged or mis-addressed objects are misses.
  template <class Decoded>
  std::optional<Decoded> fetch(
      const pipeline::Fingerprint& fp,
      std::optional<Decoded> (*decode)(std::string_view));
  /// Publishes encoded object bytes at `fp`.
  void publish(const pipeline::Fingerprint& fp, const std::string& bytes);

  std::string root_;
  mutable std::mutex mutex_;  // guards the counters
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejects_ = 0;
};

}  // namespace osim::store
