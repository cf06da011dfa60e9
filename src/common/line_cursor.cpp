#include "common/line_cursor.hpp"

#include <cctype>

#include "common/expect.hpp"

namespace osim {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// Cuts the next '\n'-terminated line off the front of `rest`.
std::string_view take_line(std::string_view& rest) {
  const std::size_t end = rest.find('\n');
  const std::string_view line = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return line;
}

}  // namespace

void LineCursor::expect_first_line(std::string_view magic) {
  if (rest_.empty()) fail("empty input");
  ++line_;
  if (trim(take_line(rest_)) != magic) {
    fail("missing '" + std::string(magic) + "' header");
  }
}

bool LineCursor::next() {
  if (held_) {
    held_ = false;
    return true;
  }
  tokens_.clear();
  while (tokens_.empty() && !rest_.empty()) {
    ++line_;
    std::string_view line = take_line(rest_);
    line = line.substr(0, line.find('#'));
    for (std::size_t i = 0; i < line.size();) {
      while (i < line.size() && is_space(line[i])) ++i;
      const std::size_t start = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      if (i > start) tokens_.push_back(line.substr(start, i - start));
    }
  }
  return !tokens_.empty();
}

std::string_view LineCursor::token(std::size_t i) const {
  if (i >= tokens_.size()) fail("missing field");
  return tokens_[i];
}

void LineCursor::require_size(std::size_t n) const {
  if (tokens_.size() != n) {
    fail(strprintf("expected %zu fields, got %zu", n, tokens_.size()));
  }
}

void LineCursor::require_min(std::size_t n) const {
  if (tokens_.size() < n) {
    fail(strprintf("expected at least %zu fields, got %zu", n,
                   tokens_.size()));
  }
}

double LineCursor::number(std::size_t i, std::string_view key) const {
  const auto value = parse_f64(token(i));
  if (!value) fail_token(i, key, "is not a finite number");
  return *value;
}

void LineCursor::fail(const std::string& why) const {
  throw Error(strprintf("%s line %d: %s", what_.c_str(), line_, why.c_str()));
}

void LineCursor::fail_token(std::size_t i, std::string_view key,
                           const std::string& why) const {
  fail(strprintf("%.*s: '%.*s' %s", static_cast<int>(key.size()), key.data(),
                 static_cast<int>(tokens_[i].size()), tokens_[i].data(),
                 why.c_str()));
}

}  // namespace osim
