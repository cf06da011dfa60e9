// osim_overlap — the overlap transformation as a standalone tool.
//
// Reads an annotated trace (written by `osim_trace --annotated`) and
// produces a replayable trace: the original lowering, or the overlapped
// transformation under configurable mechanisms. This lets one tracing run
// feed many transformation studies, exactly as the paper's tracing stage
// feeds Dimemas.
//
//   osim_overlap --annotated /tmp/cg.ann --mode original --out orig.trace
//   osim_overlap --annotated /tmp/cg.ann --mode overlap --chunks 8
//       --pattern ideal --out ideal8.trace
#include <cstdio>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "overlap/transform.hpp"
#include "trace/annotated_io.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  std::string annotated_path;
  std::string out_path;
  std::string mode = "overlap";
  std::string pattern = "measured";
  std::int64_t chunks = 4;
  bool no_advance = false;
  bool no_postpone = false;
  bool no_chunking = false;
  bool no_double_buffering = false;
  bool binary = false;

  Flags flags(
      "osim_overlap: transform an annotated trace into a replayable trace");
  flags.add("annotated", &annotated_path,
            "annotated trace file (required; from osim_trace --annotated)");
  flags.add("out", &out_path, "output trace path (required)");
  flags.add("mode", &mode, "original | overlap");
  flags.add("pattern", &pattern, "measured | ideal");
  flags.add("chunks", &chunks, "chunks per message");
  flags.add("no-advance-sends", &no_advance, "disable advancing sends");
  flags.add("no-postpone-receptions", &no_postpone,
            "disable post-postponing receptions");
  flags.add("no-chunking", &no_chunking, "disable message chunking");
  flags.add("no-double-buffering", &no_double_buffering,
            "force synchronous chunk transfers");
  flags.add("binary", &binary, "write the compact binary format");
  if (!flags.parse(argc, argv)) return 0;
  require_flag_range("chunks", chunks, 1, overlap::kMaxChunks);

  if (annotated_path.empty()) throw UsageError("--annotated is required");
  if (out_path.empty()) throw UsageError("--out is required");

  const trace::AnnotatedTrace annotated =
      trace::read_annotated_file(annotated_path);

  trace::Trace out;
  if (mode == "original") {
    out = overlap::lower_original(annotated);
  } else if (mode == "overlap") {
    overlap::OverlapOptions options;
    options.chunks = static_cast<int>(chunks);
    if (pattern == "measured") {
      options.pattern = overlap::PatternMode::kMeasured;
    } else if (pattern == "ideal") {
      options.pattern = overlap::PatternMode::kIdeal;
    } else {
      throw UsageError("unknown pattern: " + pattern);
    }
    options.advance_sends = !no_advance;
    options.postpone_receptions = !no_postpone;
    options.chunking = !no_chunking;
    options.double_buffering = !no_double_buffering;
    out = overlap::transform(annotated, options);
  } else {
    throw UsageError("unknown mode: " + mode);
  }

  if (binary) {
    trace::write_binary_file(out, out_path);
  } else {
    trace::write_text_file(out, out_path);
  }
  std::printf("wrote %s (%zu records, %d ranks)\n", out_path.c_str(),
              out.total_records(), out.num_ranks);
  return 0;
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
