// Canonical replay-identity lines shared by perf_identity_test and the
// golden generator.
//
// Every hot-path optimization (calendar queue, arena allocation, SoA
// record streams, mmap ingestion) must keep replay results bit-identical.
// This header reduces "the results" to a deterministic list of text lines
// — one per (bundled app, trace variant) with the context fingerprint, the
// makespan printed as exact bits (%a) and the DES event count, plus one
// line per app with a CRC over the full JSON run report. The committed
// golden under tests/golden/ was generated from the pre-optimization tree
// with exactly this code; the test regenerates the lines and diffs them.
#pragma once

#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/crc32.hpp"
#include "common/strings.hpp"
#include "dimemas/platform.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"

namespace osim::identity {

/// The small, fast configuration the identity lines are pinned to.
inline apps::AppConfig identity_config(const apps::MiniApp& app) {
  apps::AppConfig config;
  config.ranks = 8;
  config.iterations = 3;
  config.scale = 1;
  while (!app.supports_ranks(config.ranks)) ++config.ranks;
  return config;
}

inline overlap::OverlapOptions identity_overlap() {
  overlap::OverlapOptions options;
  options.chunks = 2;
  return options;
}

/// The three per-variant contexts for one app, in variant order.
inline std::vector<pipeline::ReplayContext> identity_contexts(
    const apps::MiniApp& app, const tracer::TracedRun& traced) {
  const apps::AppConfig config = identity_config(app);
  const dimemas::Platform platform =
      dimemas::Platform::marenostrum(config.ranks, app.paper_buses());
  std::vector<pipeline::ReplayContext> contexts;
  for (const pipeline::TraceVariant variant :
       {pipeline::TraceVariant::kOriginal,
        pipeline::TraceVariant::kOverlapMeasured,
        pipeline::TraceVariant::kOverlapIdeal}) {
    contexts.push_back(pipeline::make_context(traced.annotated, variant,
                                              identity_overlap(), platform));
  }
  return contexts;
}

/// Computes the canonical lines, replaying each app's variants in parallel
/// on `study`'s pool (any jobs count must produce identical lines — that
/// is the point).
inline std::vector<std::string> identity_lines(pipeline::Study& study) {
  std::vector<std::string> lines;
  for (const apps::MiniApp* app : apps::registry()) {
    const apps::AppConfig config = identity_config(*app);
    const tracer::TracedRun traced = apps::trace_app(*app, config, {});
    const dimemas::Platform platform =
        dimemas::Platform::marenostrum(config.ranks, app->paper_buses());
    const std::vector<pipeline::ReplayContext> contexts =
        identity_contexts(*app, traced);
    const std::vector<dimemas::SimResult> results =
        study.map(contexts, pipeline::run_scenario);
    const char* names[] = {"original", "overlap_real", "overlap_ideal"};
    for (std::size_t v = 0; v < contexts.size(); ++v) {
      const dimemas::SimResult& result = results[v];
      lines.push_back(strprintf(
          "%s %s fp=%s makespan=%a events=%llu", app->name().c_str(),
          names[v], pipeline::to_hex(contexts[v].fingerprint()).c_str(),
          result.makespan,
          static_cast<unsigned long long>(result.des_events)));
    }
    // Full JSON run report (metrics on) for the original variant, reduced
    // to a CRC + byte count: any drift in attribution, occupancy or
    // protocol counters shows up as a golden mismatch.
    dimemas::ReplayOptions metrics_options;
    metrics_options.collect_metrics = true;
    const pipeline::ReplayContext with_metrics = pipeline::make_context(
        traced.annotated, pipeline::TraceVariant::kOriginal,
        identity_overlap(), platform, metrics_options);
    const std::string report = pipeline::replay_report_json(
        pipeline::run_scenario(with_metrics), platform, app->name());
    lines.push_back(strprintf("%s report crc32=%08x bytes=%zu",
                              app->name().c_str(), crc32(report),
                              report.size()));
  }
  return lines;
}

/// Lines at the rank count where the replay used to go quadratic: the
/// overlap_real traces of pop and specfem3d at 1024 ranks (3 iterations, 4
/// chunks) on osim_replay's default platform at 250 MB/s, plus pop with
/// its Table I bus count, which drives the bus-pool path of BusNetwork.
/// Marked " ranks=" so they never mix with the 8-rank lines above.
inline std::vector<std::string> scale_lines() {
  constexpr std::int32_t kRanks = 1024;
  std::vector<std::string> lines;
  for (const char* name : {"pop", "specfem3d"}) {
    const apps::MiniApp& app = *apps::find_app(name);
    apps::AppConfig config;
    config.ranks = kRanks;
    config.iterations = 3;
    const tracer::TracedRun traced = apps::trace_app(app, config, {});
    overlap::OverlapOptions overlap_options;
    overlap_options.chunks = 4;
    std::vector<std::int32_t> bus_counts = {0};
    if (app.name() == "pop") bus_counts.push_back(app.paper_buses());
    for (const std::int32_t buses : bus_counts) {
      dimemas::Platform platform;
      platform.num_nodes = kRanks;
      platform.bandwidth_MBps = 250.0;
      platform.latency_us = 4.0;
      platform.num_buses = buses;
      const pipeline::ReplayContext context = pipeline::make_context(
          traced.annotated, pipeline::TraceVariant::kOverlapMeasured,
          overlap_options, platform);
      const dimemas::SimResult result = pipeline::run_scenario(context);
      lines.push_back(strprintf(
          "%s overlap_real ranks=%d buses=%d fp=%s makespan=%a events=%llu",
          name, kRanks, buses,
          pipeline::to_hex(context.fingerprint()).c_str(), result.makespan,
          static_cast<unsigned long long>(result.des_events)));
    }
  }
  return lines;
}

}  // namespace osim::identity
