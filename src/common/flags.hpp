// Tiny command-line flag parser for the bench / example binaries.
//
// Accepted syntax: --name=value or --name value; bare --name for booleans
// (explicit --name=true/false/1/0 also works). A flag repeated on the
// command line is applied left to right, so the last occurrence wins —
// convenient for overriding a scripted default. Unknown flags and
// malformed values raise osim::UsageError naming the offending flag —
// with a "did you mean --x?" suggestion when a registered flag is within
// edit distance 2 — and listing the registered flags, so every binary
// gets a usable --help for free.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace osim {

class Flags {
 public:
  /// `description` is printed in --help output.
  explicit Flags(std::string description);

  /// Registration: call before parse(). The pointer must outlive parse().
  void add(const std::string& name, std::string* target,
           const std::string& help);
  void add(const std::string& name, std::int64_t* target,
           const std::string& help);
  void add(const std::string& name, double* target, const std::string& help);
  void add(const std::string& name, bool* target, const std::string& help);

  /// Parses argv. On --help, prints usage and returns false (caller should
  /// exit 0). Throws osim::UsageError on unknown flags or bad values.
  bool parse(int argc, const char* const* argv);

  std::string usage() const;

  /// True when the last parse() set `name` from the command line (even to
  /// its default value), so callers can reject flag combinations.
  bool given(const std::string& name) const;

  /// Registered flag closest to `name` within edit distance 2, or "" when
  /// nothing is close enough to suggest.
  std::string suggestion(const std::string& name) const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Entry {
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
  };

  void set_value(const std::string& name, Entry& entry,
                 const std::string& value);
  static std::string cellrepr(double v);

  std::string description_;
  std::string program_;
  std::map<std::string, Entry> entries_;
  std::set<std::string> given_;
};

/// Throws osim::UsageError ("--name must be in [lo, hi] (got value)")
/// unless lo <= value <= hi. For integer flags whose consumers would
/// otherwise abort on an invariant or silently narrow the value.
void require_flag_range(const std::string& name, std::int64_t value,
                        std::int64_t lo, std::int64_t hi);

}  // namespace osim
