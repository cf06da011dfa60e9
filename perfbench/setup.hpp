// Benchmark set-up shared by every workload: trace the six paper apps on
// the in-process MPI runtime, lower the original and overlap_real traces,
// and write them as binary trace files.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "trace/trace.hpp"

namespace perfbench {

inline constexpr int kIterations = 8;
inline constexpr int kChunks = 4;
/// Pool threads of the sweep study and the in-process store warm (nproc).
inline constexpr int kJobs = 4;

/// One written trace file.
struct TraceFile {
  std::string app;
  std::string variant;  // "original" | "overlap_real"
  std::string path;
  int ranks = 0;
  std::uint64_t bytes = 0;
};

/// The twelve traces (six apps x {original, overlap_real}) at `ranks`,
/// written under `dir`, in registry order.
std::vector<TraceFile> write_traces(int ranks, const std::string& dir);

/// The variants every workload replays, in file order.
inline const char* const kVariants[] = {"original", "overlap_real"};

}  // namespace perfbench
