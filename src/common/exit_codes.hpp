// Exit-code contract shared by every osim_* tool, so scripts and CI can
// branch on *why* a tool stopped without parsing stderr:
//
//   0  success; output is complete and trustworthy
//   1  runtime failure (invalid trace semantics, I/O error, bad config)
//   2  usage error: the command line itself was wrong (unknown flag,
//      malformed value, missing required flag) — see osim::UsageError
//   3  input trace unreadable: nothing could be salvaged from it
//   4  input trace was damaged but salvaged (osim_replay --recover,
//      osim_lint); results reflect only the recovered prefix
//   5  interrupted: a supervised run stopped early (SIGINT/SIGTERM or
//      --study-deadline). Any flushed report is a valid partial document
//      with "status": "interrupted" — trustworthy, but not the full sweep
//   6  busy: the analysis service refused the request under admission
//      control (queue depth or in-flight byte budget exhausted). The
//      request was never accepted — resubmitting later is safe
//
// Keep the numbers stable: scripts/pipeline_test.sh,
// scripts/resilience_test.sh and scripts/serve_test.sh assert them.
#pragma once

namespace osim {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitUnreadable = 3;
inline constexpr int kExitSalvaged = 4;
inline constexpr int kExitInterrupted = 5;
inline constexpr int kExitBusy = 6;

}  // namespace osim
