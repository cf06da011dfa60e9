// Minimal streaming JSON writer for the structured run reports.
//
// No external JSON dependency is available in this repo, and the reports
// only need serialization, so this is a small comma-managing emitter:
// nesting is tracked on a stack, strings are escaped per RFC 8259, doubles
// are printed with enough digits to round-trip (%.17g), and non-finite
// doubles serialize as null (JSON has no Inf/NaN).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace osim::metrics {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or a begin_*().
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int32_t number) {
    return value(static_cast<std::int64_t>(number));
  }
  JsonWriter& value(bool boolean);
  /// `number` with exactly `decimals` digits after the point (%.*f), for
  /// measured values whose width should not depend on their magnitude.
  JsonWriter& fixed(double number, int decimals);
  JsonWriter& null();

  /// The finished document. Valid once every begin_* has been closed.
  const std::string& str() const;

  static std::string escape(std::string_view text);

 private:
  void comma();

  std::string out_;
  std::vector<bool> needs_comma_;  // one per open scope
  bool after_key_ = false;
};

}  // namespace osim::metrics
