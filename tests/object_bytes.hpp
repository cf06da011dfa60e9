// Byte-level forging helpers for store object tests (store_test and the
// envelope fuzzer in fuzz_test).
//
// Every store object kind shares one envelope: 8-byte magic, u32 version,
// 16-byte fingerprint, u64 payload size, payload, then a CRC-32 over
// everything after the magic (DESIGN §3.5). These helpers overwrite one
// little-endian field and re-seal the CRC, so a test proves that the check
// it targets fires on its own rather than via the CRC.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace osim::object_bytes {

/// Byte offsets of the envelope fields.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kPayloadSizeAt = 8 + 4 + 16;
constexpr std::size_t kPayloadAt = kPayloadSizeAt + 8;
constexpr std::size_t kCrcBytes = 4;

/// Recomputes the CRC footer of `object` over its current bytes.
inline std::string resealed(std::string object) {
  bytes::store_le(object.data() + object.size() - kCrcBytes,
                  crc32(std::string_view(object).substr(
                      8, object.size() - 8 - kCrcBytes)));
  return object;
}

/// Overwrites the little-endian field at `at` and re-seals the CRC.
template <class T>
std::string with_field(std::string object, std::size_t at, T value) {
  bytes::store_le(object.data() + at, value);
  return resealed(std::move(object));
}

}  // namespace osim::object_bytes
