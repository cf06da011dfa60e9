// Text (de)serialization of annotated traces, so the tracing stage can run
// once and the overlap transformation can be re-run offline with different
// options (chunk counts, mechanism toggles, ideal vs measured patterns).
//
// Format (line oriented, whitespace separated, '#' comments):
//
//   #OSIM-ANNTRACE v1
//   meta app nas_cg
//   meta ranks 2
//   meta mips 2300
//   rank 0 final 123456
//   s  <vclock> <peer> <tag> <elem_bytes> <nelems> <buffer> <chunkable>
//      <interval_start> [per-element last-store vclocks; '-' = never]
//   is <vclock> <req> <peer> <tag> ... (same trailer as s)
//   r  <vclock> <peer> <tag> <elem_bytes> <nelems> <buffer> <chunkable>
//      <interval_end> <wait_event_index> [per-element first-load vclocks]
//   ir <vclock> <req> <peer> <tag> ... (same trailer as r)
//   w  <vclock> <request ids...>
//   g  <vclock> <collective> <root> <bytes> <sequence>
//
// Untracked transfers (buffer = -1) carry no per-element trailer. The
// header and the input contract (integers that fit their field, finite
// numbers, ranks in [1, kMaxRanks], a MIPS rate above zero) are the text
// trace format's (trace/io.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/annotated.hpp"

namespace osim::trace {

void write_annotated(const AnnotatedTrace& trace, std::ostream& out);
std::string write_annotated(const AnnotatedTrace& trace);
void write_annotated_file(const AnnotatedTrace& trace,
                          const std::string& path);

/// Parses and validates an annotated trace; throws osim::Error naming the
/// line (and the field) on malformed input. The file reader parses the
/// mapped file.
AnnotatedTrace read_annotated(std::string_view text);
AnnotatedTrace read_annotated_file(const std::string& path);

}  // namespace osim::trace
