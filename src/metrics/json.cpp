#include "metrics/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::metrics {

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows its key
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_.push_back(',');
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  OSIM_CHECK(!needs_comma_.empty() && !after_key_);
  needs_comma_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_.push_back('[');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  OSIM_CHECK(!needs_comma_.empty() && !after_key_);
  needs_comma_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  OSIM_CHECK_MSG(!after_key_, "JSON key immediately after a key");
  comma();
  out_.push_back('"');
  out_.append(escape(name));
  out_.append("\":");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma();
  out_.push_back('"');
  out_.append(escape(text));
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) return null();
  comma();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", number);
  out_.append(buffer);
  return *this;
}

JsonWriter& JsonWriter::fixed(double number, int decimals) {
  if (!std::isfinite(number)) return null();
  comma();
  out_.append(strprintf("%.*f", decimals, number));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  comma();
  out_.append(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  comma();
  out_.append(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  comma();
  out_.append(boolean ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_.append("null");
  return *this;
}

const std::string& JsonWriter::str() const {
  OSIM_CHECK_MSG(needs_comma_.empty() && !after_key_,
                 "unterminated JSON document");
  return out_;
}

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buffer);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace osim::metrics
