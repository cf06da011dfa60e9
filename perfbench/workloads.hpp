// The three benchmark workloads, plus the generator of the expected-results
// table they check against.
#pragma once

#include <functional>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// The bandwidths (MB/s) sweep1024 evaluates every trace at.
inline constexpr double kSweepBandwidths[] = {250.0, 500.0};
/// report256 replays at osim_replay's default bandwidth.
inline constexpr double kReportBandwidth = 250.0;
/// serve256: the warm set the store holds before timing starts, and how
/// many unseen bandwidths each trace can take fresh requests at.
inline constexpr double kServeWarmBandwidths[] = {100.0, 150.0, 200.0,
                                                  300.0, 400.0, 600.0};
inline constexpr int kServeFreshPool = 48;
/// The `round`th fresh bandwidth of trace `trace`: 100.5, 101.5, ... with
/// the traces interleaved, so no two traces (not even two files with the
/// same content) and no warm scenario share one.
double serve_fresh_bandwidth(std::size_t trace, int round);

/// sweep1024: one what-if Study per pass over six apps x {original,
/// overlap_real} at 1024 ranks across a fixed bandwidth sweep.
RunResult run_sweep(const RunConfig& config);

/// report256: the osim_replay --report path, one trace per operation.
RunResult run_report(const RunConfig& config);

/// serve256: warm osim_serve traffic from two blocking client connections.
RunResult run_serve(const RunConfig& config, const std::string& serve_binary);

/// Recomputes every scenario the workloads check and writes the table.
void generate_expected(const std::string& path, const std::string& work_dir);

/// Runs `setup_once(dir, last)` kSetupRepetitions times, each into a fresh
/// directory under `work_dir`, and returns the median wall time. Spans are
/// recorded for the last repetition only; the earlier directories are
/// removed. `setup_once` must tear down anything it started unless `last`.
double timed_setup(const RunConfig& config,
                   const std::function<void(const std::string& dir, bool last)>&
                       setup_once,
                   std::string* last_dir);

}  // namespace perfbench
