// Content fingerprints — the cache key of the pipeline layer.
//
// Lives in its own header (below context.hpp) so lower layers that only
// need the key type — notably the persistent scenario store in src/store —
// can use it without pulling in the ReplayContext machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace osim::pipeline {

/// 128-bit content fingerprint of a (trace, platform, options) triple.
/// Two independent 64-bit lanes make an accidental collision between the
/// handful of scenarios a study touches astronomically unlikely.
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Two-lane FNV-1a with distinct offset bases; both lanes see the same byte
/// stream, so a collision requires both 64-bit hashes to collide at once.
/// Every fingerprint in the repository (scenario contexts, lint keys,
/// report addresses) is built with this one hasher, over
/// the little-endian bytes of its fields.
class FingerprintHasher {
 public:
  void byte(unsigned char b) {
    lo_ = (lo_ ^ b) * kPrime;
    hi_ = (hi_ ^ b) * kPrime2;
  }
  void u64(std::uint64_t v) {
    bytes::for_each_le_byte(v, [this](unsigned char b) { byte(b); });
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { byte(v ? 1 : 0); }
  /// u64 length, then the bytes.
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }

  Fingerprint value() const { return {lo_, hi_}; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  static constexpr std::uint64_t kPrime2 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t lo_ = 0xcbf29ce484222325ULL;
  std::uint64_t hi_ = 0x84222325cbf29ce4ULL;
};

/// A fingerprint on disk or on the wire: u64 hi, then u64 lo.
inline void write_fingerprint(bytes::Writer& out, const Fingerprint& fp) {
  out.u64(fp.hi);
  out.u64(fp.lo);
}

inline Fingerprint read_fingerprint(bytes::Reader& in) {
  Fingerprint fp;
  fp.hi = in.u64();
  fp.lo = in.u64();
  return fp;
}

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Canonical textual form: 32 lowercase hex digits, high lane first. This
/// is the spelling used by study reports, osim_inspect --fingerprint and
/// the scenario store's object file names, so the three can be correlated
/// by eye or by grep.
inline std::string to_hex(const Fingerprint& f) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(f.hi),
                static_cast<unsigned long long>(f.lo));
  return std::string(buf, 32);
}

/// Inverse of to_hex(); nullopt unless `hex` is exactly 32 hex digits.
inline std::optional<Fingerprint> fingerprint_from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t lanes[2] = {0, 0};
  for (int lane = 0; lane < 2; ++lane) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(lane * 16 + i)];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
      lanes[lane] = (lanes[lane] << 4) | digit;
    }
  }
  return Fingerprint{lanes[1], lanes[0]};
}

}  // namespace osim::pipeline
