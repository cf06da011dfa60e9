#include "supervise/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "common/crash_point.hpp"
#include "common/crc32.hpp"
#include "common/expect.hpp"

namespace osim::supervise {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 4;
/// Records are tiny; anything claiming to be bigger is damage, and
/// rejecting it keeps a flipped length byte from swallowing the rest of
/// the file as one giant "record".
constexpr std::uint32_t kMaxPayloadBytes = 4096;

constexpr std::uint8_t kKindScenario = 0;
constexpr std::uint8_t kKindComplete = 1;

std::string encode_header(const pipeline::Fingerprint& study) {
  std::string out;
  bytes::Writer w(out);
  w.raw(kJournalMagic);
  w.u32(kJournalVersion);
  pipeline::write_fingerprint(w, study);
  w.u32(crc32(std::string_view(out).substr(kJournalMagic.size())));
  return out;
}

std::string encode_entry_payload(const JournalEntry& entry) {
  std::string payload;
  bytes::Writer w(payload);
  w.u8(kKindScenario);
  pipeline::write_fingerprint(w, entry.fingerprint);
  w.u8(static_cast<std::uint8_t>(entry.status));
  w.f64(entry.makespan);
  w.f64(entry.fault_wait_s);
  w.f64(entry.progress_wait_s);
  w.f64(entry.partial_blocked_s);
  faults::write_counts(w, entry.fault_counts);
  return payload;
}

/// Decodes a scenario record's payload after its kind byte.
bool decode_entry_payload(bytes::Reader& in, JournalEntry& entry) {
  entry.fingerprint = pipeline::read_fingerprint(in);
  const std::uint8_t status = in.u8();
  entry.makespan = in.f64();
  entry.fault_wait_s = in.f64();
  entry.progress_wait_s = in.f64();
  entry.partial_blocked_s = in.f64();
  entry.fault_counts = faults::read_counts(in);
  if (!in.done()) return false;
  if (status > static_cast<std::uint8_t>(ScenarioStatus::kSkippedResume)) {
    return false;
  }
  entry.status = static_cast<ScenarioStatus>(status);
  return true;
}

struct ParsedJournal {
  bool valid_header = false;
  pipeline::Fingerprint study;
  std::vector<JournalEntry> entries;
  std::size_t ok = 0;
  bool complete = false;
  /// Bytes of the longest valid prefix; everything after it is torn.
  std::size_t valid_end = 0;
};

/// Salvage-style total parse: never throws, keeps the longest valid
/// prefix. A header that fails any check leaves valid_header == false.
ParsedJournal parse_journal(std::string_view journal) {
  ParsedJournal parsed;
  if (journal.size() < kHeaderBytes || !journal.starts_with(kJournalMagic)) {
    return parsed;
  }
  const std::string_view header_body = journal.substr(
      kJournalMagic.size(), kHeaderBytes - kJournalMagic.size() - 4);
  bytes::Reader header(journal.substr(kJournalMagic.size()));
  if (header.u32() != kJournalVersion) return parsed;
  parsed.study = pipeline::read_fingerprint(header);
  if (header.u32() != crc32(header_body)) return parsed;
  parsed.valid_header = true;
  parsed.valid_end = kHeaderBytes;

  bytes::Reader records(journal.substr(kHeaderBytes));
  while (records.remaining() > 0) {
    const std::uint32_t payload_bytes = records.u32();
    if (payload_bytes == 0 || payload_bytes > kMaxPayloadBytes) break;
    const std::string_view payload = records.raw(payload_bytes);
    const std::uint32_t payload_crc = records.u32();
    if (!records.ok() || payload_crc != crc32(payload)) break;
    bytes::Reader in(payload);
    const std::uint8_t kind = in.u8();
    if (kind == kKindScenario) {
      JournalEntry entry;
      if (!decode_entry_payload(in, entry)) break;
      if (entry.status == ScenarioStatus::kOk) ++parsed.ok;
      parsed.entries.push_back(entry);
    } else if (kind == kKindComplete) {
      if (!in.done()) break;
      parsed.complete = true;
    } else {
      break;
    }
    parsed.valid_end = journal.size() - records.remaining();
  }
  return parsed;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

}  // namespace

const char* scenario_status_name(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kOk: return "ok";
    case ScenarioStatus::kTimeout: return "timeout";
    case ScenarioStatus::kCancelled: return "cancelled";
    case ScenarioStatus::kFailed: return "failed";
    case ScenarioStatus::kSkippedResume: return "skipped-resume";
  }
  return "unknown";
}

pipeline::Fingerprint study_fingerprint(std::string_view study_id) {
  pipeline::FingerprintHasher h;
  h.str(study_id);
  return h.value();
}

std::string StudyJournal::path_for(const std::string& root,
                                   const pipeline::Fingerprint& study) {
  return (fs::path(root) / "journals" /
          (pipeline::to_hex(study) + ".osimjrn"))
      .string();
}

StudyJournal::StudyJournal(const std::string& root,
                           const pipeline::Fingerprint& study)
    : study_(study), path_(path_for(root, study)) {
  std::error_code ec;
  fs::create_directories(fs::path(path_).parent_path(), ec);

  const std::string bytes = read_file(path_);
  ParsedJournal parsed = parse_journal(bytes);
  const bool fresh =
      !parsed.valid_header || !(parsed.study == study_);
  if (fresh) {
    // Missing, damaged, version-skewed or alien journal: start over. The
    // journal is an accelerator like the store — never an error source.
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) throw Error("cannot create study journal: " + path_);
    const std::string header = encode_header(study_);
    std::fwrite(header.data(), 1, header.size(), f);
    std::fflush(f);
    file_ = f;
    return;
  }
  recovered_ = std::move(parsed.entries);
  recovered_complete_ = parsed.complete;
  if (parsed.valid_end < bytes.size()) {
    // A crash tore the last append; drop the torn tail before continuing
    // so our appends land on a valid prefix.
    fs::resize_file(path_, parsed.valid_end, ec);
    if (ec) throw Error("cannot truncate torn study journal: " + path_);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw Error("cannot open study journal: " + path_);
}

StudyJournal::~StudyJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void StudyJournal::write_record(const std::string& payload) {
  std::string record;
  bytes::Writer w(record);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));

  std::lock_guard<std::mutex> lock(mutex_);
  maybe_crash("journal.append");
  // Two-part write with a crash point between: OSIM_CRASH_POINT=
  // journal.append.torn leaves exactly the torn record the salvage
  // parser must truncate (supervise_test exercises this).
  const std::size_t half = record.size() / 2;
  std::fwrite(record.data(), 1, half, file_);
  std::fflush(file_);
  maybe_crash("journal.append.torn");
  std::fwrite(record.data() + half, 1, record.size() - half, file_);
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    throw Error("cannot append to study journal: " + path_);
  }
}

void StudyJournal::append(const JournalEntry& entry) {
  write_record(encode_entry_payload(entry));
}

void StudyJournal::append_complete() {
  write_record(std::string(1, static_cast<char>(kKindComplete)));
}

std::vector<JournalInfo> list_journals(const std::string& root) {
  std::vector<JournalInfo> infos;
  const fs::path dir = fs::path(root) / "journals";
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return infos;
  for (const auto& file : fs::directory_iterator(dir, ec)) {
    if (!file.is_regular_file()) continue;
    if (file.path().extension() != ".osimjrn") continue;
    JournalInfo info;
    info.path = file.path().string();
    std::error_code size_ec;
    info.bytes = static_cast<std::uint64_t>(fs::file_size(file.path(),
                                                          size_ec));
    const ParsedJournal parsed = parse_journal(read_file(info.path));
    info.valid = parsed.valid_header;
    info.study = parsed.study;
    info.entries = parsed.entries.size();
    info.ok = parsed.ok;
    info.complete = parsed.complete;
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const JournalInfo& a, const JournalInfo& b) {
              return a.path < b.path;
            });
  return infos;
}

std::size_t gc_journals(const std::string& root) {
  std::size_t removed = 0;
  for (const JournalInfo& info : list_journals(root)) {
    if (info.valid && !info.complete) continue;  // study still in flight
    std::error_code ec;
    if (fs::remove(info.path, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace osim::supervise
