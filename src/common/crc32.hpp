// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the integrity
// footers of trace files (one CRC per rank's byte range) and store
// objects. Header-only and one-shot: every checksummed format covers a
// contiguous byte range, so there is no incremental form. The tables are built at compile time so there is no
// init-order dependency.
//
// Slicing-by-8: eight table lookups per eight input bytes, independent of
// one another, instead of one dependent lookup per byte. A binary trace is
// checksummed in a separate pass after it is parsed, and the byte-at-a-time
// loop's dependency chain would otherwise cost as much as the parse.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace osim {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight bytes fold in one step.
constexpr Crc32Tables crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = crc32_tables();

}  // namespace detail

/// CRC-32 of one whole message.
inline std::uint32_t crc32(std::string_view bytes) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ bytes::load_le<std::uint32_t>(p);
    const std::uint32_t hi = bytes::load_le<std::uint32_t>(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace osim
