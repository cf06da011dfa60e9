// The bundled applications' traces as test fixtures, plus the byte hash
// the golden files pin reports with.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "apps/app.hpp"
#include "dimemas/platform.hpp"
#include "overlap/options.hpp"
#include "pipeline/context.hpp"
#include "pipeline/scenario.hpp"

namespace osim::testing_fixtures {

/// FNV-1a 64 over the bytes of `text`.
inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// Calls `fn(app, variant, ranks, context)` for every bundled app's
/// original and overlap_real traces (3 iterations, 4 chunks) at each rank
/// count, on the app's Marenostrum platform with default replay options.
template <typename Fn>
void for_each_app_context(Fn fn, std::initializer_list<std::int32_t>
                                     rank_counts = {16, 64}) {
  for (const std::int32_t ranks : rank_counts) {
    for (const apps::MiniApp* app : apps::registry()) {
      apps::AppConfig config;
      config.ranks = ranks;
      config.iterations = 3;
      while (!app->supports_ranks(config.ranks)) ++config.ranks;
      const tracer::TracedRun traced = apps::trace_app(*app, config, {});
      overlap::OverlapOptions overlap_options;
      overlap_options.chunks = 4;
      for (const pipeline::TraceVariant variant :
           {pipeline::TraceVariant::kOriginal,
            pipeline::TraceVariant::kOverlapMeasured}) {
        const pipeline::ReplayContext context = pipeline::make_context(
            traced.annotated, variant, overlap_options,
            dimemas::Platform::marenostrum(config.ranks,
                                           app->paper_buses()));
        fn(app->name(),
           variant == pipeline::TraceVariant::kOriginal ? "original"
                                                        : "overlap_real",
           config.ranks, context);
      }
    }
  }
}

/// for_each_app_context, handing `fn` the context's trace.
template <typename Fn>
void for_each_app_trace(Fn fn, std::initializer_list<std::int32_t>
                                   rank_counts = {16, 64}) {
  for_each_app_context(
      [&fn](const std::string& app, const char* variant, std::int32_t ranks,
            const pipeline::ReplayContext& context) {
        fn(app, variant, ranks, context.trace());
      },
      rank_counts);
}

}  // namespace osim::testing_fixtures
