#include "store/store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <cerrno>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "common/bytes.hpp"
#include "common/crash_point.hpp"
#include "common/crc32.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kIndexMagic = "OSIMIDX1";
constexpr std::uint32_t kIndexVersion = 1;
constexpr const char* kIndexName = "index.osim";
constexpr const char* kLockName = "lock";

/// RAII advisory lock on <root>/lock. flock() locks are per open file
/// description, so two threads of one process exclude each other exactly
/// like two processes do — each acquisition opens its own descriptor.
class FileLock {
 public:
  explicit FileLock(const fs::path& path) {
#ifndef _WIN32
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) {
      while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
      }
    }
#else
    (void)path;  // single-process best effort on platforms without flock
#endif
  }
  ~FileLock() {
#ifndef _WIN32
    if (fd_ >= 0) ::close(fd_);  // releases the lock
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

/// Publishes `bytes` at `path` via a unique temp file in `tmp_dir` and an
/// atomic rename, so concurrent readers see either the old object, the new
/// one, or nothing — never a torn write.
void write_file_atomic(const fs::path& path, const std::string& bytes,
                       const fs::path& tmp_dir) {
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path tmp =
      tmp_dir / strprintf("%s.%ld.%llu.tmp", path.filename().c_str(),
#ifndef _WIN32
                          static_cast<long>(::getpid()),
#else
                          0L,
#endif
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
  // Crash injection for durability tests: dying here leaves only an
  // orphaned tmp file (a reader sees a clean miss; the open-time sweep
  // reclaims it), dying after the rename leaves a complete object whose
  // index entry lags (the index is rebuilt from the tree).
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

}  // namespace

// --- index (de)serialization -------------------------------------------------
//
// Layout: magic "OSIMIDX1", u32 version, u64 clock, u64 entry count,
// entries (hi, lo, bytes, last_access, hits; five u64 = 40 bytes each),
// u32 CRC over every byte after the magic. Like the object envelope
// (store/format.hpp), but with a clock where objects carry a fingerprint.
// The index is a rebuildable summary, so a failed decode is repaired, not
// reported to callers.

struct IndexCodec {
  static constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  static constexpr std::size_t kEntryBytes = 5 * 8;

  static std::string encode(std::uint64_t clock,
                            const std::vector<std::uint64_t>& flat) {
    // flat holds 5 u64 per entry: hi, lo, bytes, last_access, hits.
    std::string out;
    out.reserve(kHeader + 8 * flat.size() + 4);
    bytes::Writer w(out);
    w.raw(kIndexMagic);
    w.u32(kIndexVersion);
    w.u64(clock);
    w.u64(flat.size() / 5);
    for (const std::uint64_t v : flat) w.u64(v);
    w.u32(crc32(std::string_view(out).substr(kIndexMagic.size())));
    return out;
  }

  static bool decode(std::string_view index, std::uint64_t& clock,
                     std::vector<std::uint64_t>& flat) {
    if (index.size() < kHeader + 4 || !index.starts_with(kIndexMagic)) {
      return false;
    }
    const std::string_view covered = index.substr(
        kIndexMagic.size(), index.size() - kIndexMagic.size() - 4);
    if (bytes::load_le<std::uint32_t>(index.data() + index.size() - 4) !=
        crc32(covered)) {
      return false;
    }
    bytes::Reader in(covered);
    if (in.u32() != kIndexVersion) return false;
    clock = in.u64();
    const std::uint64_t count = in.u64();
    if (in.remaining() % kEntryBytes != 0 ||
        count != in.remaining() / kEntryBytes) {
      return false;
    }
    flat.resize(count * 5);
    for (std::uint64_t& v : flat) v = in.u64();
    return in.done();
  }
};

// --- ScenarioStore -----------------------------------------------------------

ScenarioStore::ScenarioStore(std::string root) : root_(std::move(root)) {
  OSIM_CHECK_MSG(!root_.empty(), "store: empty root directory");
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(root_) / "tmp", ec);
  if (ec) {
    throw Error("store: cannot create cache directory " + root_ + ": " +
                ec.message());
  }
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
  const std::string hex = pipeline::to_hex(fp);
  return (fs::path(root_) / "objects" / hex.substr(0, 2) / hex).string();
}

template <class Decoded>
std::optional<Decoded> ScenarioStore::fetch(
    const pipeline::Fingerprint& fp,
    std::optional<Decoded> (*decode)(std::string_view)) {
  const std::optional<std::string> bytes = read_file(object_path(fp));
  std::optional<Decoded> decoded;
  if (bytes.has_value()) decoded = decode(*bytes);
  if (!decoded.has_value() || !(decoded->fingerprint == fp)) {
    // Absent, or damaged, version-skewed or mis-addressed: a miss, never
    // an error.
    std::lock_guard<std::mutex> guard(mutex_);
    ++misses_;
    if (bytes.has_value()) ++rejects_;
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++hits_;
  }
  // Bump the LRU slot so gc() evicts cold objects first.
  record_access(fp, bytes->size(), /*hit=*/true);
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
  record_access(fp, bytes.size(), /*hit=*/false);
}

void ScenarioStore::record_access(const pipeline::Fingerprint& fp,
                                  std::uint64_t bytes, bool hit) {
  FileLock lock(fs::path(root_) / kLockName);
  Index index = reconciled_index();
  ++index.clock;
  const auto entry =
      std::find_if(index.entries.begin(), index.entries.end(),
                   [&fp](const IndexEntry& e) { return e.fp == fp; });
  if (entry != index.entries.end()) {
    entry->bytes = bytes;
    entry->last_access = index.clock;
    if (hit) ++entry->hits;
  } else if (!hit) {
    index.entries.push_back(IndexEntry{fp, bytes, index.clock, 0});
  }
  write_index(index);
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

std::vector<pipeline::Fingerprint> ScenarioStore::scan_objects() const {
  std::vector<pipeline::Fingerprint> found;
  std::error_code ec;
  const fs::path objects = fs::path(root_) / "objects";
  for (fs::directory_iterator prefix(objects, ec);
       !ec && prefix != fs::directory_iterator(); prefix.increment(ec)) {
    if (!prefix->is_directory(ec)) continue;
    std::error_code inner;
    for (fs::directory_iterator file(prefix->path(), inner);
         !inner && file != fs::directory_iterator(); file.increment(inner)) {
      const std::optional<pipeline::Fingerprint> fp =
          pipeline::fingerprint_from_hex(file->path().filename().string());
      if (fp.has_value()) found.push_back(*fp);
    }
  }
  return found;
}

ScenarioStore::Index ScenarioStore::reconciled_index() {
  Index index;
  const std::optional<std::string> bytes =
      read_file(fs::path(root_) / kIndexName);
  std::vector<std::uint64_t> flat;
  if (bytes.has_value() && IndexCodec::decode(*bytes, index.clock, flat)) {
    index.entries.reserve(flat.size() / 5);
    for (std::size_t i = 0; i + 4 < flat.size(); i += 5) {
      index.entries.push_back(IndexEntry{{flat[i + 1], flat[i]}, flat[i + 2],
                                         flat[i + 3], flat[i + 4]});
    }
  } else if (bytes.has_value()) {
    index.rebuilt = true;  // damaged index: rebuilt below, never fatal
  }
  // Reconcile with the object tree: entries for vanished objects go, files
  // published without an index update (crash between rename and index
  // write, or a hand-copied store) come in with unknown recency.
  std::vector<IndexEntry> alive;
  alive.reserve(index.entries.size());
  for (const IndexEntry& entry : index.entries) {
    std::error_code ec;
    if (fs::exists(object_path(entry.fp), ec) && !ec) {
      alive.push_back(entry);
    }
  }
  index.entries = std::move(alive);
  for (const pipeline::Fingerprint& fp : scan_objects()) {
    const bool known =
        std::any_of(index.entries.begin(), index.entries.end(),
                    [&fp](const IndexEntry& e) { return e.fp == fp; });
    if (known) continue;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(object_path(fp), ec);
    index.entries.push_back(IndexEntry{fp, ec ? 0 : size, 0, 0});
  }
  return index;
}

void ScenarioStore::write_index(const Index& index) {
  std::vector<std::uint64_t> flat;
  flat.reserve(index.entries.size() * 5);
  for (const IndexEntry& entry : index.entries) {
    flat.push_back(entry.fp.hi);
    flat.push_back(entry.fp.lo);
    flat.push_back(entry.bytes);
    flat.push_back(entry.last_access);
    flat.push_back(entry.hits);
  }
  write_file_atomic(fs::path(root_) / kIndexName,
                    IndexCodec::encode(index.clock, flat),
                    fs::path(root_) / "tmp");
}

StoreStats ScenarioStore::stats() {
  FileLock lock(fs::path(root_) / kLockName);
  const Index index = reconciled_index();
  StoreStats stats;
  stats.clock = index.clock;
  stats.index_rebuilt = index.rebuilt;
  for (const IndexEntry& entry : index.entries) {
    ++stats.objects;
    stats.bytes += entry.bytes;
    stats.total_hits += entry.hits;
  }
  write_index(index);  // persist the reconciliation
  return stats;
}

VerifyReport ScenarioStore::verify() {
  VerifyReport report;
  for (const pipeline::Fingerprint& fp : scan_objects()) {
    ++report.objects_checked;
    const std::string path = object_path(fp);
    std::error_code rel_ec;
    const std::string relative = fs::relative(path, root_, rel_ec).string();
    const std::optional<std::string> bytes = read_file(path);
    if (!bytes.has_value()) {
      report.issues.push_back({relative, "unreadable"});
      continue;
    }
    // probe_object dispatches on the magic, so replay artifacts and lint
    // reports are both recognized (and neither flags the other as damage).
    const std::optional<pipeline::Fingerprint> probed = probe_object(*bytes);
    if (!probed.has_value()) {
      report.issues.push_back(
          {relative, "corrupt object (bad magic, version or CRC)"});
      continue;
    }
    if (!(*probed == fp)) {
      report.issues.push_back(
          {relative, "address mismatch: object records fingerprint " +
                         pipeline::to_hex(*probed)});
      continue;
    }
    ++report.objects_ok;
  }
  const std::optional<std::string> index_bytes =
      read_file(fs::path(root_) / kIndexName);
  if (index_bytes.has_value()) {
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> flat;
    if (!IndexCodec::decode(*index_bytes, clock, flat)) {
      report.issues.push_back(
          {kIndexName, "damaged index (will be rebuilt on next use)"});
    }
  }
  return report;
}

GcReport ScenarioStore::gc(std::uint64_t max_bytes,
                           std::uint64_t max_objects) {
  FileLock lock(fs::path(root_) / kLockName);
  Index index = reconciled_index();

  GcReport report;
  for (const IndexEntry& entry : index.entries) {
    ++report.objects_before;
    report.bytes_before += entry.bytes;
  }

  // Corrupt objects are dead weight: they can only ever decode to misses,
  // so gc removes them regardless of the byte budget.
  std::vector<IndexEntry> intact;
  intact.reserve(index.entries.size());
  for (const IndexEntry& entry : index.entries) {
    const std::optional<std::string> bytes = read_file(object_path(entry.fp));
    const std::optional<pipeline::Fingerprint> probed =
        bytes.has_value() ? probe_object(*bytes) : std::nullopt;
    if (probed.has_value() && *probed == entry.fp) {
      intact.push_back(entry);
      continue;
    }
    std::error_code ec;
    fs::remove(object_path(entry.fp), ec);
    ++report.objects_removed;
    report.bytes_removed += entry.bytes;
  }

  // LRU eviction: coldest first (last_access 0 = never seen hot).
  std::sort(intact.begin(), intact.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.last_access != b.last_access) {
                return a.last_access < b.last_access;
              }
              return std::make_pair(a.fp.hi, a.fp.lo) <
                     std::make_pair(b.fp.hi, b.fp.lo);
            });
  std::uint64_t kept_bytes = 0;
  for (const IndexEntry& entry : intact) kept_bytes += entry.bytes;
  std::size_t evict = 0;
  while (evict < intact.size() &&
         (kept_bytes > max_bytes ||
          (max_objects != 0 && intact.size() - evict > max_objects))) {
    const IndexEntry& victim = intact[evict];
    std::error_code ec;
    fs::remove(object_path(victim.fp), ec);
    kept_bytes -= victim.bytes;
    ++report.objects_removed;
    report.bytes_removed += victim.bytes;
    ++evict;
  }
  intact.erase(intact.begin(),
               intact.begin() + static_cast<std::ptrdiff_t>(evict));

  report.objects_kept = intact.size();
  report.bytes_kept = kept_bytes;
  index.entries = std::move(intact);
  write_index(index);
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

std::string resolve_cache_dir(std::string explicit_dir) {
  if (!explicit_dir.empty()) return explicit_dir;
  const char* env = std::getenv("OSIM_CACHE_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace osim::store
