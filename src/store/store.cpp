#include "store/store.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <tuple>
#include <utility>

#include <unistd.h>

#include "common/crash_point.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "trace/mmap_file.hpp"

namespace osim::store {

namespace fs = std::filesystem;

namespace {

/// Maps the file at `path`; one that is absent or cannot be opened is
/// nullopt. An absent file — every miss — costs no exception. Objects are
/// renamed into place and only ever unlinked, never rewritten, so a
/// mapping never sees a torn file.
std::optional<trace::MappedFile> map_file(const std::string& path) {
  try {
    return trace::MappedFile::open_if_exists(path);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Stamps `path` as used now: its mtime is its LRU slot. The explicit
/// time is finer than the kernel's coarse write stamp. A failure (a
/// read-only store, another user's object) costs recency, never results.
void stamp_now(const fs::path& path) {
  std::error_code ignored;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ignored);
}

/// Publishes `bytes` at `path` via a unique temp file in `tmp_dir` and an
/// atomic rename, so concurrent readers see either the old object, the new
/// one, or nothing — never a torn write.
void write_file_atomic(const fs::path& path, const std::string& bytes,
                       const fs::path& tmp_dir) {
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path tmp =
      tmp_dir / strprintf("%s.%ld.%llu.tmp", path.filename().c_str(),
                          static_cast<long>(::getpid()),
                          static_cast<unsigned long long>(
                              sequence.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("store: cannot create " + tmp.string());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      fs::remove(tmp, ignored);
      throw Error("store: failed writing " + tmp.string());
    }
  }
  stamp_now(tmp);
  // Crash injection for durability tests: dying here leaves only an
  // orphaned tmp file (a reader sees a clean miss; the open-time sweep
  // reclaims it), dying after the rename leaves a complete object.
  maybe_crash("store.publish.tmp");
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw Error("store: cannot publish " + path.string() + ": " +
                ec.message());
  }
  maybe_crash("store.publish.renamed");
}

/// One file of the object tree, as a scan found it.
struct StoredObject {
  pipeline::Fingerprint fp;
  std::uint64_t bytes = 0;
  fs::file_time_type mtime;
};

/// Every object file under `<root>/objects`. Files whose names are not
/// addresses are skipped, and so are files that vanish mid-scan (a
/// concurrent gc).
std::vector<StoredObject> scan_objects(const std::string& root) {
  std::vector<StoredObject> found;
  std::error_code ec;
  for (fs::directory_iterator prefix(fs::path(root) / "objects", ec);
       !ec && prefix != fs::directory_iterator(); prefix.increment(ec)) {
    if (!prefix->is_directory(ec)) continue;
    std::error_code inner;
    for (fs::directory_iterator file(prefix->path(), inner);
         !inner && file != fs::directory_iterator(); file.increment(inner)) {
      const std::optional<pipeline::Fingerprint> fp =
          pipeline::fingerprint_from_hex(file->path().filename().string());
      if (!fp.has_value()) continue;
      std::error_code stat_ec;
      StoredObject object{*fp, file->file_size(stat_ec), {}};
      if (!stat_ec) object.mtime = file->last_write_time(stat_ec);
      if (!stat_ec) found.push_back(object);
    }
  }
  return found;
}

}  // namespace

// --- ScenarioStore -----------------------------------------------------------

ScenarioStore::ScenarioStore(std::string root) : root_(std::move(root)) {
  OSIM_CHECK_MSG(!root_.empty(), "store: empty root directory");
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (ec) {
    throw Error("store: cannot create cache directory " + root_ + ": " +
                ec.message());
  }
  // Best effort: only publication needs tmp/, and it reports its own
  // failure, so a store that cannot be written still serves hits.
  fs::create_directories(fs::path(root_) / "tmp", ec);
  sweep_stale_tmp(root_, kStaleTmpMaxAge);
}

std::size_t ScenarioStore::sweep_stale_tmp(const std::string& root,
                                           std::chrono::seconds max_age) {
  // Interrupted publications (kill -9 between write and rename) orphan
  // their temp files; nothing else ever references them, so age is the
  // only signal needed. The age guard keeps us from racing a live writer
  // in another process that has written but not yet renamed.
  std::size_t removed = 0;
  std::error_code ec;
  const fs::path tmp_dir = fs::path(root) / "tmp";
  if (!fs::is_directory(tmp_dir, ec)) return 0;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(tmp_dir, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    const fs::file_time_type mtime = fs::last_write_time(entry, entry_ec);
    if (entry_ec) continue;
    if (now - mtime < max_age) continue;
    if (fs::remove(entry.path(), entry_ec) && !entry_ec) ++removed;
  }
  return removed;
}

std::string ScenarioStore::object_path(const pipeline::Fingerprint& fp) const {
  // One string and no fs::path temporaries: every miss pays this before
  // its open(). Layout: <root>/objects/<first two hex digits>/<hex>.
  const std::string hex = pipeline::to_hex(fp);
  std::string path;
  path.reserve(root_.size() + sizeof("/objects/xx/") + hex.size());
  path.append(root_);
  if (path.back() != '/') path += '/';
  path.append("objects/").append(hex, 0, 2).append(1, '/').append(hex);
  return path;
}

template <class Decoded>
std::optional<Decoded> ScenarioStore::fetch(
    const pipeline::Fingerprint& fp,
    std::optional<Decoded> (*decode)(std::string_view)) {
  const std::string path = object_path(fp);
  const std::optional<trace::MappedFile> file = map_file(path);
  std::optional<Decoded> decoded;
  if (file.has_value()) decoded = decode(file->view());
  if (!decoded.has_value() || !(decoded->fingerprint == fp)) {
    // Absent, or damaged, version-skewed or mis-addressed: a miss, never
    // an error.
    std::lock_guard<std::mutex> guard(mutex_);
    ++misses_;
    if (file.has_value()) ++rejects_;
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++hits_;
  }
  stamp_now(path);  // so gc() evicts cold objects first
  return decoded;
}

void ScenarioStore::publish(const pipeline::Fingerprint& fp,
                            const std::string& bytes) {
  const fs::path path(object_path(fp));
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    throw Error("store: cannot create " + path.parent_path().string() + ": " +
                ec.message());
  }
  write_file_atomic(path, bytes, fs::path(root_) / "tmp");
}

std::optional<ScenarioArtifact> ScenarioStore::load(
    const pipeline::Fingerprint& fp) {
  std::optional<DecodedObject> decoded = fetch(fp, &decode_object);
  if (!decoded.has_value()) return std::nullopt;
  return std::move(decoded->artifact);
}

void ScenarioStore::save(const pipeline::Fingerprint& fp,
                         const ScenarioArtifact& artifact) {
  publish(fp, encode_object(fp, artifact));
}

std::optional<lint::Report> ScenarioStore::load_lint(
    const pipeline::Fingerprint& fp) {
  std::optional<DecodedLintObject> decoded = fetch(fp, &decode_lint_object);
  if (!decoded.has_value()) return std::nullopt;
  return std::move(decoded->report);
}

void ScenarioStore::save_lint(const pipeline::Fingerprint& fp,
                              const lint::Report& report) {
  publish(fp, encode_lint_object(fp, report));
}

std::optional<std::string> ScenarioStore::load_report(
    const pipeline::Fingerprint& scenario) {
  std::optional<DecodedReportObject> decoded =
      fetch(report_address(scenario), &decode_report_object);
  if (!decoded.has_value()) return std::nullopt;
  return std::move(decoded->report_json);
}

void ScenarioStore::save_report(const pipeline::Fingerprint& scenario,
                                std::string_view report_json) {
  const pipeline::Fingerprint fp = report_address(scenario);
  publish(fp, encode_report_object(fp, report_json));
}

StoreStats ScenarioStore::stats() const {
  StoreStats stats;
  for (const StoredObject& object : scan_objects(root_)) {
    ++stats.objects;
    stats.bytes += object.bytes;
  }
  return stats;
}

VerifyReport ScenarioStore::verify() const {
  VerifyReport report;
  for (const StoredObject& object : scan_objects(root_)) {
    ++report.objects_checked;
    const std::string path = object_path(object.fp);
    std::error_code rel_ec;
    const std::string relative = fs::relative(path, root_, rel_ec).string();
    const std::optional<trace::MappedFile> file = map_file(path);
    if (!file.has_value()) {
      report.issues.push_back({relative, "unreadable"});
      continue;
    }
    // probe_object dispatches on the magic, so replay artifacts and lint
    // reports are both recognized (and neither flags the other as damage).
    const std::optional<pipeline::Fingerprint> probed =
        probe_object(file->view());
    if (!probed.has_value()) {
      report.issues.push_back(
          {relative, "corrupt object (bad magic, version or CRC)"});
      continue;
    }
    if (!(*probed == object.fp)) {
      report.issues.push_back(
          {relative, "address mismatch: object records fingerprint " +
                         pipeline::to_hex(*probed)});
      continue;
    }
    ++report.objects_ok;
  }
  return report;
}

GcReport ScenarioStore::gc(std::uint64_t max_bytes,
                           std::uint64_t max_objects) {
  const std::vector<StoredObject> objects = scan_objects(root_);
  GcReport report;
  // Corrupt objects are dead weight: they can only ever decode to misses,
  // so gc removes them regardless of the byte budget.
  std::vector<StoredObject> intact;
  intact.reserve(objects.size());
  for (const StoredObject& object : objects) {
    ++report.objects_before;
    report.bytes_before += object.bytes;
    const std::string path = object_path(object.fp);
    const std::optional<trace::MappedFile> file = map_file(path);
    if (file.has_value() && probe_object(file->view()) == object.fp) {
      intact.push_back(object);
      continue;
    }
    std::error_code ec;
    fs::remove(path, ec);
    ++report.objects_removed;
    report.bytes_removed += object.bytes;
  }

  // LRU eviction: oldest stamp first. Kernel timestamps are coarse and
  // stamps can tie, so the fingerprint makes the order deterministic.
  std::sort(intact.begin(), intact.end(),
            [](const StoredObject& a, const StoredObject& b) {
              return std::tie(a.mtime, a.fp.hi, a.fp.lo) <
                     std::tie(b.mtime, b.fp.hi, b.fp.lo);
            });
  std::uint64_t kept_bytes = 0;
  for (const StoredObject& object : intact) kept_bytes += object.bytes;
  std::size_t evict = 0;
  while (evict < intact.size() &&
         (kept_bytes > max_bytes ||
          (max_objects != 0 && intact.size() - evict > max_objects))) {
    const StoredObject& victim = intact[evict];
    std::error_code ec;
    fs::remove(object_path(victim.fp), ec);
    kept_bytes -= victim.bytes;
    ++report.objects_removed;
    report.bytes_removed += victim.bytes;
    ++evict;
  }
  report.objects_kept = intact.size() - evict;
  report.bytes_kept = kept_bytes;
  return report;
}

std::uint64_t ScenarioStore::hits() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return hits_;
}

std::uint64_t ScenarioStore::misses() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return misses_;
}

std::uint64_t ScenarioStore::rejects() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return rejects_;
}

std::string VerifyReport::render_text() const {
  std::string out = strprintf("store verify: %llu object(s), %llu OK\n",
                              static_cast<unsigned long long>(objects_checked),
                              static_cast<unsigned long long>(objects_ok));
  for (const VerifyIssue& issue : issues) {
    out += "  " + issue.path + ": " + issue.message + "\n";
  }
  return out;
}

}  // namespace osim::store
