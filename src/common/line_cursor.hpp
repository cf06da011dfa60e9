// The one reader of line-oriented text input: trace files (trace/io.hpp),
// annotated traces (trace/annotated_io.hpp) and platform files
// (dimemas/platform_io.hpp) all parse a byte span — MappedFile::view() for
// files — through it.
//
// A line ends at '\n'; '#' starts a comment; a line without tokens is
// skipped. The current line's whitespace-separated tokens are views into
// the input. The typed readers accept what the formats promise and nothing
// else: integers that fit their field (no silent wrap) and finite numbers.
// Every failure throws osim::Error naming the line, and the field's key
// where there is one:
//
//   platform file line 3: latency_us: 'inf' is not a finite number
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/strings.hpp"

namespace osim {

class LineCursor {
 public:
  /// `what` names the input in error messages ("trace", "platform file").
  LineCursor(std::string_view text, std::string what)
      : rest_(text), what_(std::move(what)) {}

  /// Consumes the first line, which must read `magic` (surrounding
  /// whitespace aside; it is not comment-stripped).
  void expect_first_line(std::string_view magic);

  /// Moves to the next line with a token; false at the end of the input.
  bool next();
  /// Makes the next call to next() stay on the current line.
  void unread() { held_ = true; }

  std::size_t size() const { return tokens_.size(); }
  /// Token `i` of the current line; fails with "missing field" past the end.
  std::string_view token(std::size_t i) const;
  /// Fails unless the line has exactly / at least `n` tokens.
  void require_size(std::size_t n) const;
  void require_min(std::size_t n) const;

  /// Token `i` as a T, range-checked; `key` names the field in errors.
  template <class T>
  T integer(std::size_t i, std::string_view key) const;
  /// Token `i` as a finite number.
  double number(std::size_t i, std::string_view key) const;

  [[noreturn]] void fail(const std::string& why) const;
  /// Fails with "<key>: '<token i>' <why>".
  [[noreturn]] void fail_token(std::size_t i, std::string_view key,
                               const std::string& why) const;

 private:
  std::string_view rest_;
  std::string what_;
  int line_ = 0;
  bool held_ = false;
  std::vector<std::string_view> tokens_;
};

template <class T>
T LineCursor::integer(std::size_t i, std::string_view key) const {
  std::optional<T> value;
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    value = parse_u64(token(i));
  } else if (const auto wide = parse_i64(token(i))) {
    value = narrow<T>(*wide);
    if (!value) {
      fail_token(i, key,
                "is outside [" +
                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
    }
  }
  if (!value) fail_token(i, key, "is not an integer");
  return *value;
}

}  // namespace osim
