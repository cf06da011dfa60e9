#include "common/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim {

Flags::Flags(std::string description) : description_(std::move(description)) {}

void Flags::add(const std::string& name, std::string* target,
                const std::string& help) {
  entries_[name] = Entry{Kind::kString, target, help, "\"" + *target + "\""};
}

void Flags::add(const std::string& name, std::int64_t* target,
                const std::string& help) {
  entries_[name] = Entry{Kind::kInt, target, help, std::to_string(*target)};
}

void Flags::add(const std::string& name, double* target,
                const std::string& help) {
  entries_[name] = Entry{Kind::kDouble, target, help, cellrepr(*target)};
}

void Flags::add(const std::string& name, bool* target,
                const std::string& help) {
  entries_[name] =
      Entry{Kind::kBool, target, help, *target ? "true" : "false"};
}

std::string Flags::cellrepr(double v) { return strprintf("%g", v); }

namespace {

/// Levenshtein distance, early-exiting once the best possible outcome
/// exceeds `cap` (we only care about distances <= 2 for suggestions).
std::size_t edit_distance_capped(const std::string& a, const std::string& b,
                                 std::size_t cap) {
  const std::size_t la = a.size();
  const std::size_t lb = b.size();
  if (la > lb + cap || lb > la + cap) return cap + 1;
  std::vector<std::size_t> row(lb + 1);
  for (std::size_t j = 0; j <= lb; ++j) row[j] = j;
  for (std::size_t i = 1; i <= la; ++i) {
    std::size_t prev = row[0];  // row[i-1][j-1]
    row[0] = i;
    std::size_t best = row[0];
    for (std::size_t j = 1; j <= lb; ++j) {
      const std::size_t subst = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev = row[j];
      row[j] = std::min({subst, row[j] + 1, row[j - 1] + 1});
      best = std::min(best, row[j]);
    }
    if (best > cap) return cap + 1;
  }
  return row[lb];
}

}  // namespace

std::string Flags::suggestion(const std::string& name) const {
  constexpr std::size_t kMaxDistance = 2;
  std::string best;
  std::size_t best_distance = kMaxDistance + 1;
  for (const auto& [candidate, entry] : entries_) {
    const std::size_t d =
        edit_distance_capped(name, candidate, kMaxDistance);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

void Flags::set_value(const std::string& name, Entry& entry,
                      const std::string& value) {
  switch (entry.kind) {
    case Kind::kString:
      *static_cast<std::string*>(entry.target) = value;
      return;
    case Kind::kInt: {
      const auto parsed = parse_i64(value);
      if (!parsed) {
        throw UsageError("flag --" + name + ": bad integer '" + value + "'");
      }
      *static_cast<std::int64_t*>(entry.target) = *parsed;
      return;
    }
    case Kind::kDouble: {
      const auto parsed = parse_f64(value);
      if (!parsed) {
        throw UsageError("flag --" + name + ": '" + value +
                         "' is not a finite number");
      }
      *static_cast<double*>(entry.target) = *parsed;
      return;
    }
    case Kind::kBool: {
      if (value == "true" || value == "1" || value.empty()) {
        *static_cast<bool*>(entry.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(entry.target) = false;
      } else {
        throw UsageError("flag --" + name + ": bad boolean '" + value + "'");
      }
      return;
    }
  }
  OSIM_UNREACHABLE("bad flag kind");
}

bool Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  given_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      throw UsageError("unexpected positional argument '" + arg + "'\n" +
                       usage());
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool have_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::string message = "unknown flag --" + name;
      if (const std::string near = suggestion(name); !near.empty()) {
        message += " (did you mean --" + near + "?)";
      }
      throw UsageError(message + "\n" + usage());
    }
    if (!have_value && it->second.kind != Kind::kBool) {
      if (i + 1 >= argc) {
        throw UsageError("flag --" + name + " needs a value");
      }
      value = argv[++i];
    }
    set_value(name, it->second, value);
    given_.insert(name);
  }
  return true;
}

bool Flags::given(const std::string& name) const {
  return given_.count(name) != 0;
}

std::string Flags::usage() const {
  std::ostringstream os;
  os << description_ << "\n";
  if (!program_.empty()) os << "usage: " << program_ << " [flags]\n";
  os << "flags:\n";
  for (const auto& [name, entry] : entries_) {
    os << "  --" << name << "  " << entry.help
       << " (default: " << entry.default_repr << ")\n";
  }
  return os.str();
}

void require_flag_range(const std::string& name, std::int64_t value,
                        std::int64_t lo, std::int64_t hi) {
  if (value >= lo && value <= hi) return;
  throw UsageError(strprintf("--%s must be in [%lld, %lld] (got %lld)",
                             name.c_str(), static_cast<long long>(lo),
                             static_cast<long long>(hi),
                             static_cast<long long>(value)));
}

}  // namespace osim
