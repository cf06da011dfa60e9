// Binary trace (de)serialization.
//
// The text format (io.hpp) is the interchange format; the binary format is
// for large traces where parsing dominates (~10x smaller and faster to
// load). It is encoded and decoded through the shared byte codec
// (common/bytes.hpp): integers are LEB128 varints (zigzag for signed),
// fixed-width fields little-endian. Layout:
//
//   magic "OSIMBT01" (8 bytes)
//   f64 mips (fixed), varint num_ranks, varint app_len, app bytes
//   per rank: varint record_count, then records:
//     u8 kind: 0 = CpuBurst  varint instructions
//              1 = Send      svarint dest, svarint tag, varint bytes,
//                            u8 flags (bit0 immediate, bit1 synchronous),
//                            svarint request
//              2 = Recv      svarint src, svarint tag, varint bytes,
//                            u8 flags, svarint request
//              3 = Wait      varint count, count x svarint requests
//              4 = GlobalOp  u8 collective, svarint root, varint bytes,
//                            svarint sequence
//   integrity footer: magic "OSIMCRC1" (8 bytes), then per rank one
//     little-endian u32 CRC-32 (IEEE) over that rank's byte range
//     (record-count varint through last record byte)
//
// Decoded values obey the text formats' input contract: the header's rank
// count and MIPS rate pass valid_rank_count/valid_mips (trace.hpp), and a
// dest, src or root outside 32 bits is corrupt, not truncated.
//
// The footer ends the file. Traces written before it existed still load —
// the strict reader accepts a clean end of input where the footer would
// start (with a logged warning) — but bytes after a footer are damage:
// the strict reader throws and the salvage reader reports them.
//
// Salvage mode: read_binary_recover() never throws on damaged input.
// It validates per record, reports every problem with its byte offset in a
// Damage report, and salvages the longest valid prefix. The record framing
// carries no resync points, so the first corrupt byte ends the salvage:
// everything before it (including earlier, fully-parsed ranks) is kept,
// everything after is counted as dropped.
//
// read_any_file() maps the file (mmap_file.hpp), sniffs the magic and
// parses the mapped bytes with the right reader, so the tools accept
// either format transparently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace osim::trace {

/// The complete file: header, rank streams and integrity footer.
std::string write_binary(const Trace& trace);
void write_binary_file(const Trace& trace, const std::string& path);

/// Throws osim::Error on truncated or corrupt input (including CRC
/// mismatches and any byte after the integrity footer).
Trace read_binary(std::string_view bytes);

/// Reads a trace file in either format, dispatching on the leading magic.
Trace read_any_file(const std::string& path);

/// One problem found while reading a damaged trace.
struct DamageIssue {
  std::uint64_t offset = 0;  // byte offset from the start of the input
  std::int32_t rank = -1;    // rank whose stream was affected; -1 = header/footer
  std::uint64_t record = 0;  // record index within the rank (when rank >= 0)
  std::string message;
};

/// Salvage report of a recovering read. clean() means the input parsed
/// exactly as the strict reader would accept it (a legacy trace without an
/// integrity footer is clean; the missing footer is only a warning).
struct Damage {
  std::vector<DamageIssue> issues;
  /// Nothing was salvageable (bad magic / unreadable header).
  bool unusable = false;
  /// Input ended before the declared record streams (or footer) did.
  bool truncated = false;
  /// Legacy trace without an integrity footer (warning, not damage).
  bool missing_footer = false;
  std::uint64_t records_salvaged = 0;
  std::uint64_t records_dropped = 0;  // declared but corrupt or missing
  std::uint64_t crc_mismatches = 0;

  bool clean() const { return issues.empty() && !unusable; }
  /// Human-readable multi-line report (empty string when clean).
  std::string render_text() const;
};

struct RecoveredTrace {
  Trace trace;
  Damage damage;
};

/// Salvaging reader: never throws, whatever the bytes. See the file
/// comment for semantics.
RecoveredTrace read_binary_recover(std::string_view bytes);

/// Either-format salvaging reader. Text traces have no partial-salvage
/// mode: a malformed text trace comes back unusable with the parse error as
/// the single issue. An unopenable file still throws.
RecoveredTrace read_any_file_recover(const std::string& path);

}  // namespace osim::trace
