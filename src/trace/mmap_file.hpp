// Read-only memory-mapped files for zero-copy input ingestion.
//
// MappedFile maps an input file read-only — a trace in either format, an
// annotated trace, a platform file — so its parser (a bytes::Reader or a
// LineCursor over view()) walks the page cache directly, with no read()
// copy. When mmap is unavailable (pipes and FIFOs, zero-length files), the
// class degrades to reading the descriptor into an owned buffer — callers
// see the same view() either way.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace osim::trace {

class MappedFile {
 public:
  /// Maps `path` read-only. Throws osim::Error if the file cannot be
  /// opened or its size determined; falls back to buffered reading if the
  /// mapping itself fails.
  static MappedFile open(const std::string& path);

  /// Same, but an absent file (ENOENT) is nullopt instead of an exception:
  /// the cheap miss of a probe that expects most paths not to exist.
  /// Every other failure still throws osim::Error.
  static std::optional<MappedFile> open_if_exists(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// The file's bytes, valid while this MappedFile lives.
  std::string_view view() const { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;  // owns the bytes when !mapped_
};

}  // namespace osim::trace
