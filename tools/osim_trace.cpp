// osim_trace — the tracing stage as a standalone tool.
//
// Runs one of the bundled applications on the instrumented runtime and
// writes exactly what the paper's Valgrind tool emits per run: "one
// non-overlapped (original) and two overlapped (potential) Dimemas traces"
// (§III-C), as text files consumable by osim_replay / osim_inspect. Verify
// them with osim_lint (--trace, or --original/--transformed for a pair).
//
//   osim_trace --app nas_cg --ranks 8 --iterations 5 --out /tmp/cg
//   → /tmp/cg.original.trace
//     /tmp/cg.overlap_real.trace
//     /tmp/cg.overlap_ideal.trace
#include <cstdio>
#include <limits>

#include "apps/app.hpp"
#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "overlap/transform.hpp"
#include "trace/annotated_io.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "trace/summary.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  std::string app_name = "nas_cg";
  std::string out_prefix = "osim";
  std::int64_t ranks = 8;
  std::int64_t iterations = 5;
  std::int64_t chunks = 4;
  std::int64_t scale = 1;
  bool quiet = false;
  bool binary = false;
  bool annotated = false;

  Flags flags(
      "osim_trace: run an application under the tracer and write the "
      "original + overlapped Dimemas traces");
  flags.add("app", &app_name,
            "application (sweep3d, pop, alya, specfem3d, nas_bt, nas_cg)");
  flags.add("out", &out_prefix, "output path prefix");
  flags.add("ranks", &ranks, "MPI ranks to run");
  flags.add("iterations", &iterations, "application iterations");
  flags.add("chunks", &chunks, "chunks per message for the overlapped traces");
  flags.add("scale", &scale, "problem size multiplier");
  flags.add("quiet", &quiet, "suppress the trace summaries");
  flags.add("binary", &binary, "write the compact binary format");
  flags.add("annotated", &annotated,
            "also write the annotated trace (<out>.ann) for osim_overlap");
  if (!flags.parse(argc, argv)) return 0;
  constexpr std::int64_t kMaxInt32 = std::numeric_limits<std::int32_t>::max();
  require_flag_range("ranks", ranks, 1, kMaxInt32);
  require_flag_range("iterations", iterations, 1, kMaxInt32);
  require_flag_range("scale", scale, 1, kMaxInt32);
  require_flag_range("chunks", chunks, 1, overlap::kMaxChunks);

  const apps::MiniApp* app = apps::find_app(app_name);
  if (app == nullptr) {
    throw UsageError("unknown app '" + app_name +
                "' (try: sweep3d, pop, alya, specfem3d, nas_bt, nas_cg)");
  }
  apps::AppConfig config;
  config.ranks = static_cast<std::int32_t>(ranks);
  config.iterations = static_cast<std::int32_t>(iterations);
  config.scale = static_cast<std::int32_t>(scale);
  if (!app->supports_ranks(config.ranks)) {
    throw Error(strprintf("app %s does not support %d ranks",
                          app_name.c_str(), config.ranks));
  }

  std::fprintf(stderr, "[osim_trace] running %s on %d ranks...\n",
               app_name.c_str(), config.ranks);
  const tracer::TracedRun traced = apps::trace_app(*app, config);

  overlap::OverlapOptions real_options;
  real_options.chunks = static_cast<int>(chunks);
  overlap::OverlapOptions ideal_options = real_options;
  ideal_options.pattern = overlap::PatternMode::kIdeal;

  struct Output {
    const char* suffix;
    trace::Trace trace;
  };
  const Output outputs[] = {
      {"original", overlap::lower_original(traced.annotated)},
      {"overlap_real", overlap::transform(traced.annotated, real_options)},
      {"overlap_ideal", overlap::transform(traced.annotated, ideal_options)},
  };
  if (annotated) {
    const std::string path = out_prefix + ".ann";
    trace::write_annotated_file(traced.annotated, path);
    std::printf("wrote %s\n", path.c_str());
  }
  for (const Output& output : outputs) {
    const std::string path = out_prefix + "." + output.suffix +
                             (binary ? ".btrace" : ".trace");
    if (binary) {
      trace::write_binary_file(output.trace, path);
    } else {
      trace::write_text_file(output.trace, path);
    }
    std::printf("wrote %s\n", path.c_str());
    if (!quiet) {
      std::printf("%s", trace::render(trace::summarize(output.trace)).c_str());
    }
  }
  return 0;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
