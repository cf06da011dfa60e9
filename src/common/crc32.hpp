// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the integrity
// footers of trace files, store objects, the store index and journals.
// Header-only; the table is built at compile time so there is no
// init-order dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace osim {

namespace detail {

constexpr std::array<std::uint32_t, 256> crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = crc32_table();

}  // namespace detail

/// Incremental CRC-32. Feed bytes with update(), read the digest with
/// value(); a fresh instance (or reset()) starts a new message.
class Crc32 {
 public:
  void update(std::uint8_t byte) {
    crc_ = detail::kCrc32Table[(crc_ ^ byte) & 0xFFu] ^ (crc_ >> 8);
  }
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) update(p[i]);
  }
  std::uint32_t value() const { return crc_ ^ 0xFFFFFFFFu; }
  void reset() { crc_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// CRC-32 of one whole message.
inline std::uint32_t crc32(std::string_view bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  return crc.value();
}

}  // namespace osim
