#include "common/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace osim {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

namespace {

// strtoX wrappers need a NUL-terminated buffer; string_views into larger
// buffers are copied first.
template <typename T, typename Fn>
std::optional<T> parse_with(std::string_view text, Fn fn) {
  const std::string buf{trim(text)};
  if (buf.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const T value = fn(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::int64_t> parse_i64(std::string_view text) {
  return parse_with<std::int64_t>(text, [](const char* s, char** end) {
    return static_cast<std::int64_t>(std::strtoll(s, end, 10));
  });
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  const auto trimmed = trim(text);
  if (!trimmed.empty() && trimmed.front() == '-') return std::nullopt;
  return parse_with<std::uint64_t>(trimmed, [](const char* s, char** end) {
    return static_cast<std::uint64_t>(std::strtoull(s, end, 10));
  });
}

std::optional<double> parse_f64(std::string_view text) {
  const auto value = parse_with<double>(
      text, [](const char* s, char** end) { return std::strtod(s, end); });
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string format_seconds(double seconds) {
  const double abs = seconds < 0 ? -seconds : seconds;
  if (abs == 0.0) return "0 s";
  if (abs < 1e-6) return strprintf("%.3g ns", seconds * 1e9);
  if (abs < 1e-3) return strprintf("%.3g us", seconds * 1e6);
  if (abs < 1.0) return strprintf("%.3g ms", seconds * 1e3);
  return strprintf("%.4g s", seconds);
}

std::string format_bytes(double bytes) {
  const double abs = bytes < 0 ? -bytes : bytes;
  if (abs < 1e3) return strprintf("%.0f B", bytes);
  if (abs < 1e6) return strprintf("%.3g KB", bytes / 1e3);
  if (abs < 1e9) return strprintf("%.3g MB", bytes / 1e6);
  return strprintf("%.3g GB", bytes / 1e9);
}

}  // namespace osim
