// The byte codec shared by every binary format in the repository: store
// objects (store/), the OSIMRPC1 protocol (serve/) and OSIMBT01 binary
// traces (trace/binary_io).
//
// Every fixed-width field is little-endian. The store may be
// shared between machines over a network filesystem and RPC peers may
// differ in host order, so the byte order is pinned rather than
// host-native. Variable-width integers are LEB128 (varint), signed ones
// zigzag-mapped first (svarint), as binary traces store them.
//
// Writer appends fields to a caller-owned std::string. Reader is total by
// construction: it never throws and never reads out of bounds. The first
// underrun, varint overflow, oversized string or non-0/1 bool byte latches
// ok() == false, every later get returns a zero value and leaves
// position() where the failure happened, and decoders check ok() (or
// done(), which also demands full consumption) where they need to instead
// of guarding every field. Length-prefixed strings are checked against
// the bytes actually present before anything is copied, so a forged
// length cannot make the reader allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace osim::bytes {

/// Calls `sink` with each byte of `v`, least significant first: the one
/// definition of the byte order, shared by the codec and the fingerprint
/// hasher (pipeline/fingerprint.hpp).
template <class T, class Sink>
inline void for_each_le_byte(T v, Sink&& sink) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    sink(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
  }
}

/// Writes `v` little-endian into the sizeof(T) bytes at `out`.
template <class T>
inline void store_le(char* out, T v) {
  for_each_le_byte(v, [&out](unsigned char b) {
    *out++ = static_cast<char>(b);
  });
}

/// Reads a little-endian T from the sizeof(T) bytes at `in`.
template <class T>
inline T load_le(const char* in) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// LEB128: seven bits per byte, least significant group first, the high
  /// bit set on every byte but the last.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  /// Zigzag-mapped varint, so small magnitudes of either sign stay short.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }
  /// Raw bytes, no length prefix.
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }
  /// u32 byte length + raw bytes (RPC strings).
  void string32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  /// u64 byte length + raw bytes (store strings).
  void string64(std::string_view s) {
    u64(s.size());
    raw(s);
  }

 private:
  template <class T>
  void put_le(T v) {
    char le[sizeof(T)];
    store_le(le, v);
    out_.append(le, sizeof(T));
  }

  std::string& out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  /// Every byte consumed and no error: the strict-decode success predicate.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Bytes consumed from the start of the input. After a failure it stays
  /// where the failing field stopped: the offset a damage report names.
  std::size_t position() const { return pos_; }
  /// The first failure was an underrun (the input ended inside a field),
  /// as opposed to malformed bytes.
  bool truncated() const { return truncated_; }

  std::uint8_t u8() {
    const char* p = take(1);
    return p == nullptr ? 0 : static_cast<std::uint8_t>(*p);
  }
  /// A bool byte other than 0 or 1 is damage, not data.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Inverse of Writer::varint. A tenth byte that still has its high bit
  /// set announces more than 64 bits: the eleventh byte is consumed and the
  /// overflow latches failure.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const char* p = take(1);
      if (p == nullptr) return 0;
      if (shift >= 64) {
        ok_ = false;
        return 0;
      }
      const auto byte = static_cast<std::uint8_t>(*p);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
  }
  /// Inverse of Writer::svarint.
  std::int64_t svarint() {
    const std::uint64_t raw = varint();
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }
  /// The next `n` bytes as a view into the input (empty on underrun).
  std::string_view raw(std::uint64_t n) {
    const char* p = take(n);
    return p == nullptr ? std::string_view() : std::string_view(p, n);
  }
  /// Inverse of Writer::string32.
  std::string string32() { return std::string(raw(u32())); }
  /// Inverse of Writer::string64; a declared length above `max_bytes` is
  /// damage even when that many bytes are present.
  std::string string64(std::uint64_t max_bytes) {
    const std::uint64_t n = u64();
    if (n > max_bytes) ok_ = false;
    return std::string(raw(n));
  }

 private:
  /// Start of the next `n` bytes, or nullptr (latching failure) when fewer
  /// remain or an earlier read already failed.
  const char* take(std::uint64_t n) {
    if (!ok_) return nullptr;
    if (n > remaining()) {
      ok_ = false;
      truncated_ = true;
      return nullptr;
    }
    const char* p = data_.data() + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  template <class T>
  T get_le() {
    const char* p = take(sizeof(T));
    return p == nullptr ? 0 : load_le<T>(p);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  bool truncated_ = false;
};

}  // namespace osim::bytes
