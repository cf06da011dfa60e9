#include "lint/diagnostics.hpp"

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "metrics/json.hpp"

namespace osim::lint {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  OSIM_UNREACHABLE("bad severity");
}

void Report::error(std::string pass, trace::Rank rank, std::ptrdiff_t record,
                   std::string message) {
  add(Diagnostic{Severity::kError, std::move(pass), {}, rank, record,
                 std::move(message), {}});
}

void Report::warning(std::string pass, trace::Rank rank,
                     std::ptrdiff_t record, std::string message) {
  add(Diagnostic{Severity::kWarning, std::move(pass), {}, rank, record,
                 std::move(message), {}});
}

void Report::info(std::string pass, trace::Rank rank, std::ptrdiff_t record,
                  std::string message) {
  add(Diagnostic{Severity::kInfo, std::move(pass), {}, rank, record,
                 std::move(message), {}});
}

void Report::add(Diagnostic diagnostic) {
  switch (diagnostic.severity) {
    case Severity::kError:
      ++num_errors_;
      break;
    case Severity::kWarning:
      ++num_warnings_;
      break;
    case Severity::kInfo:
      ++num_infos_;
      break;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void Report::merge(const Report& other) {
  for (const Diagnostic& d : other.diagnostics_) add(d);
}

bool Report::has_at_least(Severity severity) const {
  switch (severity) {
    case Severity::kInfo:
      return !diagnostics_.empty();
    case Severity::kWarning:
      return num_errors_ + num_warnings_ > 0;
    case Severity::kError:
      return num_errors_ > 0;
  }
  OSIM_UNREACHABLE("bad severity");
}

std::string Report::render_text() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += severity_name(d.severity);
    out += strprintf(" [%s]", d.pass.c_str());
    if (d.rank >= 0) out += strprintf(" rank %d", d.rank);
    if (d.record != kNoRecord) {
      out += strprintf(" record %td", d.record);
    }
    out += ": ";
    out += d.message;
    out += '\n';
  }
  out += strprintf("%zu error(s), %zu warning(s)", num_errors_,
                   num_warnings_);
  if (num_infos_ > 0) out += strprintf(", %zu info(s)", num_infos_);
  out += '\n';
  return out;
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Report::render_csv() const {
  std::string out = "severity,pass,rank,record,message\n";
  for (const Diagnostic& d : diagnostics_) {
    out += severity_name(d.severity);
    out += ',';
    out += csv_escape(d.pass);
    out += ',';
    if (d.rank >= 0) out += strprintf("%d", d.rank);
    out += ',';
    if (d.record != kNoRecord) out += strprintf("%td", d.record);
    out += ',';
    out += csv_escape(d.message);
    out += '\n';
  }
  return out;
}

std::string Report::render_json() const {
  metrics::JsonWriter w;
  write_json(w);
  return w.str();
}

void Report::write_json(metrics::JsonWriter& w) const {
  w.begin_object();
  w.key("schema").value("osim.lint_report");
  w.key("version").value(static_cast<std::int64_t>(kLintReportVersion));
  w.key("clean").value(clean());
  w.key("errors").value(static_cast<std::uint64_t>(num_errors_));
  w.key("warnings").value(static_cast<std::uint64_t>(num_warnings_));
  w.key("infos").value(static_cast<std::uint64_t>(num_infos_));
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : diagnostics_) {
    w.begin_object();
    w.key("severity").value(severity_name(d.severity));
    w.key("pass").value(d.pass);
    if (!d.code.empty()) w.key("code").value(d.code);
    if (d.rank >= 0) w.key("rank").value(d.rank);
    if (d.record != kNoRecord) {
      w.key("record").value(static_cast<std::int64_t>(d.record));
    }
    w.key("message").value(d.message);
    if (!d.evidence.empty()) w.key("evidence").value(d.evidence);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace osim::lint
