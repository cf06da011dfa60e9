// Text (de)serialization of replayable traces.
//
// Format (line oriented, whitespace separated, '#' comments):
//
//   #OSIM-TRACE v1
//   meta app nas_cg
//   meta ranks 4
//   meta mips 2300
//   rank 0
//   c 123456                 # cpu burst, instructions
//   s 3 7 65536              # blocking send: dest tag bytes
//   is 3 7 65536 12          # immediate send: dest tag bytes request
//   r 2 7 65536              # blocking recv: src tag bytes
//   ir 2 7 65536 13          # immediate recv: src tag bytes request
//   w 12 13                  # wait: request ids
//   g allreduce 0 8 4        # global op: kind root bytes sequence
//
// This mirrors the role of the Dimemas trace file between the paper's
// Valgrind tool and the Dimemas simulator: the pipeline stages can run as
// separate processes exchanging files.
//
// Input contract (shared with the annotated and platform formats through
// common/line_cursor.hpp): integers must fit their field (ranks, tags and
// requests are never wrapped), numbers must be finite, the rank count must
// lie in [1, kMaxRanks] and the MIPS rate above zero (valid_rank_count,
// valid_mips: the header rules the binary reader applies too). Files are
// read with read_any_file (trace/binary_io.hpp), which parses the mapped
// bytes of either format.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/line_cursor.hpp"
#include "trace/trace.hpp"

namespace osim::trace {

void write_text(const Trace& trace, std::ostream& out);
std::string write_text(const Trace& trace);
void write_text_file(const Trace& trace, const std::string& path);

/// Parses a trace; throws osim::Error naming the line (and the field) on
/// malformed input.
Trace read_text(std::string_view text);

/// The header both text formats open with: the `magic` line, then a
/// contiguous block of `meta <key> <value>` lines (app, ranks, mips).
/// `extra_meta_fields` lets a meta line carry trailing fields, as the
/// annotated format always has.
struct TextHeader {
  std::int32_t ranks = 0;
  double mips = 1000.0;
  std::string app;
};
TextHeader read_text_header(LineCursor& in, std::string_view magic,
                            bool extra_meta_fields);

}  // namespace osim::trace
