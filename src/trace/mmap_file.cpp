#include "trace/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/expect.hpp"

namespace osim::trace {

namespace {

/// Drains an already-open descriptor. Used for everything mmap cannot take
/// (pipes, devices, zero-length files): re-opening the path — as the old
/// fallback did — consumes nothing from a regular file but loses data or
/// blocks forever on a FIFO whose writer only opens it once.
std::string read_whole_fd(int fd, const std::string& path) {
  std::string out;
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return out;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("error reading file: " + path);
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

MappedFile MappedFile::open(const std::string& path) {
  std::optional<MappedFile> file = open_if_exists(path);
  if (!file.has_value()) throw Error("cannot open file: " + path);
  return std::move(*file);
}

std::optional<MappedFile> MappedFile::open_if_exists(const std::string& path) {
  MappedFile file;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw Error("cannot open file: " + path);
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw Error("cannot stat file: " + path);
  }
  // Only regular, non-empty files are mappable (mmap of length 0 is EINVAL;
  // pipes and devices have no fixed extent). Everything else falls back.
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      ::close(fd);
      file.data_ = static_cast<const char*>(addr);
      file.size_ = static_cast<std::size_t>(st.st_size);
      file.mapped_ = true;
      return file;
    }
  }
  // Buffered fallback from the descriptor we already hold — never a
  // path re-open, which would lose data on pipes and /dev/stdin.
  try {
    file.fallback_ = read_whole_fd(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  file.mapped_ = false;
  return file;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    new (this) MappedFile(std::move(other));
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

}  // namespace osim::trace
