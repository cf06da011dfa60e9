#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "metrics/json.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> open_stack;

}  // namespace

void Spans::Scope::close() {
  if (spans_ == nullptr) return;
  spans_->end(id_);
  spans_ = nullptr;
}

Spans::Scope Spans::open(std::string_view name, std::int64_t parent) {
  if (!enabled_) return Scope(nullptr, -1);
  if (parent == kInherit) {
    parent = open_stack.empty() ? kRoot : open_stack.back();
  }
  const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{std::string(name), parent, now, -1.0});
  }
  open_stack.push_back(id);
  return Scope(this, id);
}

void Spans::end(std::int64_t id) {
  const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
  }
  const auto it = std::find(open_stack.rbegin(), open_stack.rend(), id);
  if (it != open_stack.rend()) open_stack.erase(std::next(it).base());
}

void Spans::count(std::string_view name, double amount) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), amount);
  } else {
    it->second += amount;
  }
}

double Spans::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, Spans::Total> Spans::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Child intervals per parent, so self time subtracts their union (children
  // running in parallel on pool threads overlap each other).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_s >= 0.0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s,
                                                                   span.end_s);
    }
  }
  std::map<std::string, Total> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0.0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = span.start_s;
    for (const auto& [begin, end] : kids) {
      const double from = std::max(begin, cursor);
      const double to = std::min(end, span.end_s);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
    Total& total = totals[span.name];
    ++total.calls;
    total.total_s += span.end_s - span.start_s;
    total.self_s += std::max(0.0, span.end_s - span.start_s - covered);
  }
  return totals;
}

void Spans::write_json(std::string& out) const {
  osim::metrics::JsonWriter w;
  w.begin_object();
  w.key("self_time").begin_object();
  for (const auto& [name, total] : totals()) {
    w.key(name).begin_object();
    w.key("calls").value(total.calls);
    w.key("total_s").value(total.total_s);
    w.key("self_s").value(total.self_s);
    w.end_object();
  }
  w.end_object();
  std::lock_guard<std::mutex> lock(mutex_);
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters_) w.key(name).value(value);
  w.end_object();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.begin_object();
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("parent").value(span.parent);
    w.key("name").value(span.name);
    w.key("start_s").value(span.start_s);
    w.key("end_s").value(span.end_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out += w.str();
}

Spans& spans() {
  static Spans instance;
  return instance;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t nearest_rank(double percentile, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

Tail tail(std::vector<double> values, double percentile) {
  Tail result;
  result.percentile = percentile;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const std::size_t rank = nearest_rank(percentile, values.size());
  result.value = values[rank - 1];
  result.beyond = values.size() - rank;
  return result;
}

std::size_t min_samples(double percentile) {
  std::size_t n = 11;
  while (n - nearest_rank(percentile, n) < 10) ++n;
  return n;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

void reset_peak_rss(pid_t pid) {
  std::ofstream clear("/proc/" + std::to_string(pid) + "/clear_refs");
  clear << "5";
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string scenario_key(std::string_view app, std::string_view variant,
                         int ranks, double bandwidth) {
  return osim::strprintf("%.*s.%.*s@%d/%g", static_cast<int>(app.size()),
                         app.data(), static_cast<int>(variant.size()),
                         variant.data(), ranks, bandwidth);
}

ExpectedTable ExpectedTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw osim::Error("cannot read expected results " + path);
  ExpectedTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string makespan;
    Expected row;
    if (!(fields >> key >> makespan >> row.des_events >> row.lint_errors)) {
      throw osim::Error("malformed expected-results line: " + line);
    }
    row.makespan_s = std::strtod(makespan.c_str(), nullptr);
    table.rows_[key] = row;
  }
  return table;
}

const Expected* ExpectedTable::find(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

void ExpectedTable::add(const std::string& key, const Expected& expected) {
  rows_[key] = expected;
}

void ExpectedTable::save(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path);
  out << header;
  for (const auto& [key, row] : rows_) {
    out << osim::strprintf("%s %a %llu %lld\n", key.c_str(), row.makespan_s,
                           static_cast<unsigned long long>(row.des_events),
                           static_cast<long long>(row.lint_errors));
  }
  if (!out) throw osim::Error("cannot write " + path);
}

void add_end_to_end(RunResult& result, double setup_s,
                    const std::vector<double>& latencies_ms,
                    double tail_percentile, double timed_s, double peak_rss,
                    double report_mb_per_op) {
  const Tail t = tail(latencies_ms, tail_percentile);
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", static_cast<double>(result.ok) / timed_s, "1/s"},
      {"op_p50_ms", median(latencies_ms), "ms"},
      {"op_tail_ms", t.value, "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"ok_frac",
       static_cast<double>(result.ok) / static_cast<double>(result.attempted),
       "ratio"},
      {"report_mb_per_op", report_mb_per_op, "MB"},
  };
  result.notes.push_back({"op_samples", static_cast<double>(t.samples), "count"});
  result.notes.push_back({"op_tail_percentile", t.percentile, "%"});
  result.notes.push_back(
      {"op_tail_samples_beyond", static_cast<double>(t.beyond), "count"});
  result.notes.push_back({"timed_s", timed_s, "s"});
  if (t.beyond < 10) {
    result.fail("fewer than ten samples beyond the tail percentile");
  }
}

}  // namespace perfbench
