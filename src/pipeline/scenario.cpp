#include "pipeline/scenario.hpp"

#include <utility>

#include "common/expect.hpp"
#include "dimemas/replay.hpp"
#include "overlap/transform.hpp"

namespace osim::pipeline {

const char* trace_variant_name(TraceVariant variant) {
  switch (variant) {
    case TraceVariant::kOriginal: return "original";
    case TraceVariant::kOverlapMeasured: return "overlap-measured";
    case TraceVariant::kOverlapIdeal: return "overlap-ideal";
  }
  OSIM_UNREACHABLE("unknown TraceVariant");
}

ReplayContext make_context(const trace::AnnotatedTrace& annotated,
                           TraceVariant variant,
                           const overlap::OverlapOptions& overlap_options,
                           dimemas::Platform platform,
                           dimemas::ReplayOptions replay_options) {
  if (variant == TraceVariant::kOriginal) {
    return ReplayContext(overlap::lower_original(annotated),
                         std::move(platform), replay_options);
  }
  overlap::OverlapOptions options = overlap_options;
  options.pattern = variant == TraceVariant::kOverlapIdeal
                        ? overlap::PatternMode::kIdeal
                        : overlap::PatternMode::kMeasured;
  return ReplayContext(overlap::transform(annotated, options),
                       std::move(platform), replay_options);
}

dimemas::SimResult run_scenario(const ReplayContext& context) {
  return dimemas::replay(context.trace(), *context.program(),
                         context.platform(), context.options());
}

std::vector<ReplayContext> cross_faults(
    const ReplayContext& base, const std::vector<FaultScenario>& scenarios) {
  std::vector<ReplayContext> contexts;
  contexts.reserve(scenarios.size());
  for (const FaultScenario& scenario : scenarios) {
    contexts.push_back(base.with_faults(scenario.model));
  }
  return contexts;
}

std::vector<ReplayContext> cross_progress(
    const ReplayContext& base,
    const std::vector<ProgressScenario>& scenarios) {
  std::vector<ReplayContext> contexts;
  contexts.reserve(scenarios.size());
  for (const ProgressScenario& scenario : scenarios) {
    contexts.push_back(base.with_progress(scenario.model));
  }
  return contexts;
}

}  // namespace osim::pipeline
