#include "common/run_options.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim {

void RunOptions::register_flags(Flags& flags, const char* report_flag,
                                const std::string& report_help) {
  flags.add("jobs", &jobs,
            "parallel jobs: a sweep's replays, or the lint passes of one "
            "trace (0 = one per hardware thread)");
  flags.add("cache-dir", &cache_dir,
            "persistent scenario store directory (default: none; warm "
            "reruns are served from the disk store — see osim_cache)");
  flags.add("perf-json", &perf_json,
            "write a JSON performance record of this invocation (wall "
            "clock, CPU time, peak RSS, tool counters) to this path");
  if (report_flag != nullptr) {
    flags.add(report_flag, &report, report_help);
  }
}

void RunOptions::register_supervision_flags(Flags& flags) {
  flags.add("scenario-timeout", &scenario_timeout_s,
            "wall-clock budget per scenario in seconds (0 = unbounded); a "
            "scenario over budget is recorded with status \"timeout\" and "
            "the sweep continues");
  flags.add("study-deadline", &study_deadline_s,
            "wall-clock budget for the whole run in seconds (0 = "
            "unbounded); at the deadline in-flight scenarios stop, a "
            "partial report is flushed and the run exits 5");
  flags.add("canonical-report", &canonical_report,
            "write the report with deterministic fields only (no wall "
            "times or cache tiers), so a killed run finished by a rerun "
            "on the same --cache-dir and an uninterrupted run can be "
            "diffed byte for byte");
}

bool RunOptions::supervision_requested() const {
  return scenario_timeout_s > 0.0 || study_deadline_s > 0.0 ||
         canonical_report;
}

int RunOptions::resolved_jobs() const {
  if (jobs < 0) throw UsageError("--jobs must be non-negative");
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return static_cast<int>(jobs);
}

PerfRecorder::PerfRecorder(std::string tool)
    : tool_(std::move(tool)), start_(std::chrono::steady_clock::now()) {}

void PerfRecorder::add(const std::string& key, double value) {
  counters_.emplace_back(key, value);
}

void PerfRecorder::write_if(const std::string& path) const {
  if (path.empty()) return;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_kb = 0.0;
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    max_rss_kb = static_cast<double>(usage.ru_maxrss);
  }
  // The record is flat and numeric apart from the tool name, so it is
  // written by hand (common/ sits below the JSON writer in metrics/).
  std::string out = "{\n";
  out += "  \"schema\": \"osim-perf-record-v1\",\n";
  out += strprintf("  \"tool\": \"%s\",\n", tool_.c_str());
  out += strprintf("  \"wall_s\": %.6f,\n", wall_s);
  out += strprintf("  \"user_s\": %.6f,\n", user_s);
  out += strprintf("  \"sys_s\": %.6f,\n", sys_s);
  out += strprintf("  \"max_rss_kb\": %.0f", max_rss_kb);
  for (const auto& [key, value] : counters_) {
    out += strprintf(",\n  \"%s\": %.9g", key.c_str(), value);
  }
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot write perf record: " + path);
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "[perf] record written to %s\n", path.c_str());
}

}  // namespace osim
