// Small string utilities shared by trace parsing, CLI flag parsing and
// report formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace osim {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// Returns true if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strict integer / floating point parsing; nullopt on any trailing garbage.
/// parse_f64 accepts finite numbers only: nullopt for nan and inf.
std::optional<std::int64_t> parse_i64(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<double> parse_f64(std::string_view text);

/// `value` as a T when T holds it exactly, else nullopt: the one narrowing
/// of integers read from input, so an out-of-range value is refused
/// instead of wrapping.
template <class T, class U>
constexpr std::optional<T> narrow(U value) {
  if (!std::in_range<T>(value)) return std::nullopt;
  return static_cast<T>(value);
}

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Formats seconds with an adaptive unit (ns/us/ms/s) for human output.
std::string format_seconds(double seconds);

/// Formats a byte count with an adaptive unit (B/KB/MB/GB), decimal units.
std::string format_bytes(double bytes);

}  // namespace osim
