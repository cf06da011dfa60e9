// osim_replay — the Dimemas stage as a standalone tool.
//
// Replays a trace file on a platform described either by the scenario
// flags (serve::ScenarioSpec, the flag surface osim_inspect and osim_client
// share) or by a platform file (see dimemas/platform_io.hpp), printing the
// makespan and per-rank statistics; optionally renders the terminal
// timeline and writes a Paraver bundle. --report writes the run report the
// analysis service delivers for the same flags (pipeline::run_report_json),
// with its lint passes on --jobs threads.
//
//   osim_replay --trace /tmp/cg.original.trace --bandwidth 250 --buses 6
//   osim_replay --trace t.trace --platform marenostrum.cfg --timeline
//   osim_replay --trace t.trace --prv /tmp/run     # + .prv/.pcf/.row
//   osim_replay --trace t.trace --report run.json  # structured run report
//   osim_replay --trace t.trace --faults 'seed=7;loss=0.02'  # injection
//   osim_replay --trace t.trace --progress app     # application-driven MPI
//   osim_replay --trace t.trace --cache-dir ~/.cache/osim   # warm reruns
//                                          # served from the scenario store
//
// Exit codes follow common/exit_codes.hpp: 2 = bad command line, 3 = the
// trace could not be read (use --recover to salvage what loads), 4 = the
// trace was damaged but replayed from the salvaged prefix, 5 = the replay
// was stopped by --scenario-timeout or a SIGINT/SIGTERM before finishing
// (partial progress is printed, nothing is cached).
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/critical_path.hpp"
#include "common/cancel.hpp"
#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "common/signals.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "paraver/paraver.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "serve/job.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  PerfRecorder perf("osim_replay");
  serve::ScenarioSpec spec;
  std::string platform_path;
  std::string prv_base;
  bool timeline = false;
  bool per_rank = false;
  bool profile = false;
  bool critpath = false;
  bool recover = false;
  std::int64_t timeline_width = 100;
  double scenario_timeout = 0.0;
  RunOptions run;

  Flags flags("osim_replay: replay a trace file on a configurable platform");
  flags.add("trace", &spec.trace_path, "trace file to replay (required)");
  flags.add("platform", &platform_path,
            "platform file; sets the network, so the individual network "
            "flags cannot be combined with it");
  spec.register_flags(flags);
  flags.add("timeline", &timeline, "render the terminal Gantt chart");
  flags.add("timeline-width", &timeline_width, "timeline width in columns");
  flags.add("per-rank", &per_rank, "print per-rank statistics");
  flags.add("profile", &profile, "print the per-rank state profile");
  flags.add("critical-path", &critpath,
            "print the critical-path composition");
  flags.add("prv", &prv_base, "write a Paraver bundle to <prv>.prv/.pcf/.row");
  flags.add("recover", &recover,
            "salvage a damaged trace instead of rejecting it (exit code 4 "
            "when records were lost)");
  flags.add("scenario-timeout", &scenario_timeout,
            "wall-clock budget in seconds; when it expires (or on "
            "SIGINT/SIGTERM) the replay stops cooperatively and exits "
            "with code 5 and its partial progress (0 = unbounded)");
  run.register_flags(flags, "report",
                     "write a JSON run report (wait-time attribution, "
                     "occupancy, protocol counters) to this path");
  if (!flags.parse(argc, argv)) return 0;
  serve::reject_network_flags_with_platform(flags, platform_path);
  const std::string& report_path = run.report;
  // --jobs runs the report's lint passes; a bad value is a usage error
  // whether or not a report is asked for.
  const int jobs = run.resolved_jobs();

  if (spec.trace_path.empty()) throw UsageError("--trace is required");
  const std::string& trace_path = spec.trace_path;
  trace::Trace t;
  bool salvaged_with_losses = false;
  if (recover) {
    trace::RecoveredTrace recovered;
    try {
      recovered = trace::read_any_file_recover(trace_path);
    } catch (const Error& e) {
      // Salvage needs the bytes: a file that cannot be opened or mapped
      // is as unreadable as in the strict read.
      std::fprintf(stderr, "error: %s\n", e.what());
      return kExitUnreadable;
    }
    if (!recovered.damage.clean()) {
      std::fprintf(stderr, "%s",
                   recovered.damage.render_text().c_str());
      if (recovered.damage.unusable) {
        std::fprintf(stderr, "error: %s: nothing salvageable\n",
                     trace_path.c_str());
        return kExitUnreadable;
      }
      salvaged_with_losses = true;
    }
    t = std::move(recovered.trace);
  } else {
    try {
      t = trace::read_any_file(trace_path);
    } catch (const Error& e) {
      std::fprintf(stderr,
                   "error: %s\n(re-run with --recover to salvage what "
                   "still loads)\n",
                   e.what());
      return kExitUnreadable;
    }
  }

  const dimemas::Platform platform =
      serve::platform_for(spec, t.num_ranks, platform_path);
  dimemas::ReplayOptions options = serve::options_for(spec);
  options.record_timeline =
      timeline || profile || critpath || !prv_base.empty();
  options.record_comms = !prv_base.empty();
  options.collect_metrics = !report_path.empty() || !prv_base.empty();
  // --scenario-timeout arms a wall-clock watchdog and turns SIGINT/SIGTERM
  // into a cooperative drain instead of an abort. The token is not part of
  // the scenario fingerprint, so a supervised replay shares store objects
  // with unsupervised runs of the same scenario.
  CancelToken cancel_token;
  if (scenario_timeout > 0.0) {
    install_graceful_shutdown();
    cancel_token = CancelToken(shutdown_flag());
    cancel_token.set_scenario_deadline(deadline_after(scenario_timeout));
    options.cancel = &cancel_token;
  }
  // The context takes the trace and validates it once (failing with lint
  // diagnostics).
  const pipeline::ReplayContext context(std::move(t), platform, options);
  const trace::Trace& replayed = context.trace();

  // Persistent store: a summary-level replay (no timeline, comms or
  // metrics recording — those results are not stored) is served from the
  // cache when this exact (trace, platform, options) fingerprint has been
  // replayed before, by any process.
  std::unique_ptr<store::ScenarioStore> cache;
  if (!run.cache_dir.empty()) {
    cache = std::make_unique<store::ScenarioStore>(run.cache_dir);
  }
  const bool cacheable = !options.record_timeline && !options.record_comms &&
                         !options.collect_metrics;
  dimemas::SimResult result;
  bool served_from_store = false;
  if (cache != nullptr && cacheable) {
    if (const std::optional<store::ScenarioArtifact> artifact =
            cache->load(context.fingerprint())) {
      result = store::to_sim_result(*artifact);
      served_from_store = true;
      std::fprintf(stderr, "[cache] served from %s\n",
                   cache->object_path(context.fingerprint()).c_str());
    }
  }
  if (!served_from_store) {
    try {
      result = pipeline::run_scenario(context);
    } catch (const CancelledError& e) {
      const PartialProgress& partial = e.partial();
      std::fprintf(
          stderr,
          "interrupted: %s after %s simulated (%llu DES events, %lld/%d "
          "ranks finished, %s compute, %s blocked); nothing cached\n",
          stop_cause_name(e.cause()),
          format_seconds(partial.sim_time_s).c_str(),
          static_cast<unsigned long long>(partial.des_events),
          static_cast<long long>(partial.ranks_finished),
          static_cast<int>(replayed.num_ranks),
          format_seconds(partial.compute_s).c_str(),
          format_seconds(partial.blocked_s).c_str());
      return kExitInterrupted;
    }
    if (cache != nullptr && cacheable) {
      // Write-behind is best effort: the result is already computed.
      try {
        cache->save(context.fingerprint(), store::make_artifact(result));
      } catch (const Error& e) {
        std::fprintf(stderr, "warning: scenario store write failed (%s)\n",
                     e.what());
      }
    }
  }

  std::printf("platform: %s\n", platform.describe().c_str());
  if (result.fault_counts.enabled) {
    std::printf("faults: seed=%llu retransmits=%llu hard_stalls=%llu "
                "degraded=%llu perturbed=%llu injected_delay=%s\n",
                static_cast<unsigned long long>(result.fault_counts.seed),
                static_cast<unsigned long long>(
                    result.fault_counts.retransmits),
                static_cast<unsigned long long>(
                    result.fault_counts.hard_stalls),
                static_cast<unsigned long long>(
                    result.fault_counts.degraded_transfers),
                static_cast<unsigned long long>(
                    result.fault_counts.perturbed_bursts),
                format_seconds(result.fault_counts.injected_delay_s).c_str());
  }
  std::printf("makespan: %s\n", format_seconds(result.makespan).c_str());
  std::printf("parallel efficiency: %.1f%%\n", result.efficiency() * 100.0);
  std::printf("DES events processed: %llu\n",
              static_cast<unsigned long long>(result.des_events));

  if (per_rank) {
    TextTable table({"rank", "compute", "send-blocked", "recv-blocked",
                     "wait-blocked", "finish", "msgs sent", "bytes sent",
                     "bytes recvd"});
    for (std::size_t r = 0; r < result.rank_stats.size(); ++r) {
      const auto& rs = result.rank_stats[r];
      table.add_row({std::to_string(r), format_seconds(rs.compute_s),
                     format_seconds(rs.send_blocked_s),
                     format_seconds(rs.recv_blocked_s),
                     format_seconds(rs.wait_blocked_s),
                     format_seconds(rs.finish_time),
                     std::to_string(rs.messages_sent),
                     format_bytes(static_cast<double>(rs.bytes_sent)),
                     format_bytes(static_cast<double>(rs.bytes_received))});
    }
    std::printf("%s", table.render().c_str());
  }

  if (timeline) {
    paraver::AsciiOptions ascii;
    ascii.width = static_cast<int>(timeline_width);
    std::printf("%s", paraver::render_ascii(result, ascii).c_str());
  }
  if (profile) {
    std::printf("%s", paraver::render_profile(result).c_str());
  }
  if (critpath) {
    std::printf("%s",
                analysis::render(analysis::critical_path(result)).c_str());
  }
  if (!prv_base.empty()) {
    paraver::write_prv_bundle(result, prv_base,
                              replayed.app.empty() ? "app" : replayed.app);
    std::printf("Paraver bundle written to %s.{prv,pcf,row}\n",
                prv_base.c_str());
  }
  if (!report_path.empty()) {
    pipeline::write_report(
        report_path,
        pipeline::run_report_json(context, result, cache.get(), jobs));
    std::printf("run report written to %s\n", report_path.c_str());
  }
  perf.add("makespan_s", result.makespan);
  perf.add("des_events", static_cast<double>(result.des_events));
  perf.add("store_hit", served_from_store ? 1.0 : 0.0);
  perf.write_if(run.perf_json);
  if (salvaged_with_losses) {
    std::fprintf(stderr,
                 "warning: results reflect a salvaged trace (exit %d)\n",
                 osim::kExitSalvaged);
    return osim::kExitSalvaged;
  }
  return osim::kExitOk;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
