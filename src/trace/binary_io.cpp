#include "trace/binary_io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "trace/io.hpp"
#include "trace/mmap_file.hpp"

namespace osim::trace {

namespace {

constexpr std::string_view kMagic = "OSIMBT01";
constexpr std::string_view kCrcMagic = "OSIMCRC1";

constexpr std::uint8_t kKindCpu = 0;
constexpr std::uint8_t kKindSend = 1;
constexpr std::uint8_t kKindRecv = 2;
constexpr std::uint8_t kKindWait = 3;
constexpr std::uint8_t kKindGlobal = 4;

constexpr std::uint8_t kFlagImmediate = 1;
constexpr std::uint8_t kFlagSynchronous = 2;

// Cap for pre-allocation from untrusted counts: a fuzzed or corrupt count
// must not translate into an unbounded reserve() before the records behind
// it have actually been read.
constexpr std::uint64_t kMaxReserve = 65536;

/// Throws the reader's latched failure, if any. The codec leaves the
/// reader's position at the failing field, so that is the damage offset.
void check(const bytes::Reader& r) {
  if (r.ok()) return;
  throw Error(r.truncated() ? "binary trace: unexpected end of file"
                            : "binary trace: varint overflow");
}

/// A decoded rank field (dest, src, root): an int32, never truncated.
Rank rank_field(std::int64_t value) {
  const auto rank = narrow<Rank>(value);
  if (!rank) throw Error("binary trace: rank field out of range");
  return *rank;
}

/// Parses one record into `stream`. Throws osim::Error on any corruption;
/// a record is appended only once all of its fields have been read.
void read_record(bytes::Reader& r, std::vector<Record>& stream) {
  const std::uint8_t kind = r.u8();
  check(r);
  switch (kind) {
    case kKindCpu: {
      const CpuBurst burst{r.varint()};
      check(r);
      stream.push_back(burst);
      return;
    }
    case kKindSend: {
      Send send;
      const std::int64_t dest = r.svarint();
      send.tag = r.svarint();
      send.bytes = r.varint();
      const std::uint8_t flags = r.u8();
      send.immediate = (flags & kFlagImmediate) != 0;
      send.synchronous = (flags & kFlagSynchronous) != 0;
      send.request = r.svarint();
      check(r);
      send.dest = rank_field(dest);
      stream.push_back(send);
      return;
    }
    case kKindRecv: {
      Recv recv;
      const std::int64_t src = r.svarint();
      recv.tag = r.svarint();
      recv.bytes = r.varint();
      recv.immediate = (r.u8() & kFlagImmediate) != 0;
      recv.request = r.svarint();
      check(r);
      recv.src = rank_field(src);
      stream.push_back(recv);
      return;
    }
    case kKindWait: {
      const std::uint64_t n = r.varint();
      check(r);
      if (n == 0 || n > 1'000'000) {
        throw Error("binary trace: implausible wait size");
      }
      Wait wait;
      wait.requests.reserve(std::min(n, kMaxReserve));
      for (std::uint64_t k = 0; k < n && r.ok(); ++k) {
        wait.requests.push_back(r.svarint());
      }
      check(r);
      stream.push_back(std::move(wait));
      return;
    }
    case kKindGlobal: {
      const std::uint8_t coll = r.u8();
      check(r);
      if (coll > static_cast<std::uint8_t>(CollectiveKind::kScan)) {
        throw Error("binary trace: unknown collective kind");
      }
      GlobalOp op;
      op.kind = static_cast<CollectiveKind>(coll);
      const std::int64_t root = r.svarint();
      op.bytes = r.varint();
      op.sequence = r.svarint();
      check(r);
      op.root = rank_field(root);
      stream.push_back(op);
      return;
    }
    default:
      throw Error(strprintf("binary trace: unknown record kind %u",
                            static_cast<unsigned>(kind)));
  }
}

/// Shared strict/salvaging reader. `damage == nullptr` is strict mode:
/// every problem throws. With a Damage sink nothing throws; problems are
/// recorded and the longest valid prefix is returned.
Trace decode(std::string_view bytes, Damage* damage) {
  bytes::Reader r(bytes);
  const bool recover = damage != nullptr;

  auto report = [&](std::int32_t rank, std::uint64_t record,
                    const std::string& message) {
    if (!recover) throw Error(message);
    damage->issues.push_back(
        DamageIssue{r.position(), rank, record, message});
  };

  // --- header ------------------------------------------------------------
  Trace trace;
  std::uint64_t num_ranks = 0;
  try {
    const std::string_view magic = r.raw(kMagic.size());
    check(r);
    if (magic != kMagic) {
      throw Error("binary trace: bad magic (not an OSIMBT01 file)");
    }
    const double mips = r.f64();
    num_ranks = r.varint();
    check(r);
    if (!valid_rank_count(num_ranks)) {
      throw Error("binary trace: implausible rank count");
    }
    if (!valid_mips(mips)) throw Error("binary trace: invalid MIPS rate");
    const std::uint64_t app_len = r.varint();
    check(r);
    if (app_len > 4096) throw Error("binary trace: implausible app name");
    const std::string_view app = r.raw(app_len);
    check(r);
    trace = Trace::make(static_cast<std::int32_t>(num_ranks), mips,
                        std::string(app));
  } catch (const Error& e) {
    if (!recover) throw;
    damage->unusable = true;
    damage->issues.push_back(DamageIssue{r.position(), -1, 0, e.what()});
    return Trace{};
  }

  // --- per-rank record streams -------------------------------------------
  // Rank k's bytes are [starts[k], starts[k + 1]): the range its footer
  // CRC covers.
  std::vector<std::size_t> starts;
  starts.reserve(std::min(num_ranks, kMaxReserve) + 1);
  bool desynchronized = false;
  for (std::uint64_t rank = 0; rank < num_ranks && !desynchronized; ++rank) {
    auto& stream = trace.ranks[rank];
    starts.push_back(r.position());
    std::uint64_t count = 0;
    std::uint64_t i = 0;
    try {
      count = r.varint();
      check(r);
      if (count > (std::uint64_t{1} << 40)) {
        throw Error("binary trace: implausible record count");
      }
      stream.reserve(std::min(count, kMaxReserve));
      for (; i < count; ++i) {
        read_record(r, stream);
      }
    } catch (const Error& e) {
      report(static_cast<std::int32_t>(rank), i, e.what());
      // Recover mode from here on (report() threw in strict mode). The
      // framing has no resync point: the first corrupt byte ends the
      // salvage. Keep everything already parsed, drop the rest.
      if (r.truncated()) damage->truncated = true;
      damage->records_dropped += count > i ? count - i : 0;
      if (rank + 1 < num_ranks) {
        damage->issues.push_back(DamageIssue{
            r.position(), static_cast<std::int32_t>(rank), i,
            strprintf("stream desynchronized: %llu later rank stream(s) "
                      "not recovered",
                      static_cast<unsigned long long>(num_ranks - rank - 1))});
      }
      desynchronized = true;
    }
    if (recover) damage->records_salvaged += stream.size();
  }
  starts.push_back(r.position());

  // --- integrity footer ---------------------------------------------------
  if (desynchronized) return trace;
  if (r.remaining() == 0) {
    // Legacy trace written before the CRC footer existed: accept, warn.
    if (recover) damage->missing_footer = true;
    std::fprintf(stderr,
                 "warning: binary trace: no integrity footer (written by an "
                 "older version); CRC verification skipped\n");
    return trace;
  }
  const std::uint64_t footer_offset = r.position();
  try {
    const std::string_view magic = r.raw(kCrcMagic.size());
    check(r);
    if (magic != kCrcMagic) {
      throw Error(
          "binary trace: trailing bytes are not an OSIMCRC1 integrity "
          "footer");
    }
    for (std::uint64_t rank = 0; rank < num_ranks; ++rank) {
      const std::uint32_t stored = r.u32();
      check(r);
      const std::uint32_t computed =
          crc32(bytes.substr(starts[rank], starts[rank + 1] - starts[rank]));
      if (stored != computed) {
        if (recover) ++damage->crc_mismatches;
        report(static_cast<std::int32_t>(rank), 0,
               strprintf("binary trace: rank %llu stream CRC mismatch "
                         "(stored %08x, computed %08x)",
                         static_cast<unsigned long long>(rank), stored,
                         computed));
      }
    }
  } catch (const Error& e) {
    if (!recover) throw;
    if (r.truncated()) damage->truncated = true;
    damage->issues.push_back(
        DamageIssue{footer_offset, -1, 0,
                    std::string("bad integrity footer: ") + e.what()});
    return trace;
  }
  if (!r.done()) {
    // The footer ends the file; whatever follows was not written by us.
    report(-1, 0,
           strprintf("binary trace: %zu trailing byte(s) after the "
                     "integrity footer",
                     r.remaining()));
  }
  return trace;
}

/// Encodes `trace` as consecutive pieces — the header, each rank's byte
/// range, the footer — handing each to `emit`, so a file is written one
/// rank at a time instead of being assembled in memory first.
template <class Emit>
void encode(const Trace& trace, Emit&& emit) {
  std::string piece;
  bytes::Writer w(piece);
  w.raw(kMagic);
  w.f64(trace.mips);
  w.varint(static_cast<std::uint64_t>(trace.num_ranks));
  w.varint(trace.app.size());
  w.raw(trace.app);
  emit(std::string_view(piece));
  std::vector<std::uint32_t> rank_crcs;
  rank_crcs.reserve(trace.ranks.size());
  for (const auto& stream : trace.ranks) {
    piece.clear();
    w.varint(stream.size());
    for (const Record& rec : stream) {
      std::visit(
          [&w](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, CpuBurst>) {
              w.u8(kKindCpu);
              w.varint(r.instructions);
            } else if constexpr (std::is_same_v<T, Send>) {
              w.u8(kKindSend);
              w.svarint(r.dest);
              w.svarint(r.tag);
              w.varint(r.bytes);
              std::uint8_t flags = 0;
              if (r.immediate) flags |= kFlagImmediate;
              if (r.synchronous) flags |= kFlagSynchronous;
              w.u8(flags);
              w.svarint(r.request);
            } else if constexpr (std::is_same_v<T, Recv>) {
              w.u8(kKindRecv);
              w.svarint(r.src);
              w.svarint(r.tag);
              w.varint(r.bytes);
              w.u8(r.immediate ? kFlagImmediate : 0);
              w.svarint(r.request);
            } else if constexpr (std::is_same_v<T, Wait>) {
              w.u8(kKindWait);
              w.varint(r.requests.size());
              for (const ReqId req : r.requests) {
                w.svarint(req);
              }
            } else if constexpr (std::is_same_v<T, GlobalOp>) {
              w.u8(kKindGlobal);
              w.u8(static_cast<std::uint8_t>(r.kind));
              w.svarint(r.root);
              w.varint(r.bytes);
              w.svarint(r.sequence);
            }
          },
          rec);
    }
    rank_crcs.push_back(crc32(piece));
    emit(std::string_view(piece));
  }
  piece.clear();
  w.raw(kCrcMagic);
  for (const std::uint32_t crc : rank_crcs) w.u32(crc);
  emit(std::string_view(piece));
}

bool has_binary_magic(std::string_view bytes) {
  return bytes.substr(0, kMagic.size()) == kMagic;
}

}  // namespace

std::string write_binary(const Trace& trace) {
  std::string out;
  encode(trace, [&out](std::string_view piece) { out += piece; });
  return out;
}

void write_binary_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open binary trace file: " + path);
  encode(trace, [&out](std::string_view piece) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  });
  if (!out) throw Error("binary trace: write error");
}

Trace read_binary(std::string_view bytes) { return decode(bytes, nullptr); }

RecoveredTrace read_binary_recover(std::string_view bytes) {
  RecoveredTrace result;
  result.trace = decode(bytes, &result.damage);
  return result;
}

Trace read_any_file(const std::string& path) {
  // Both formats parse straight out of the mapping: no read() copies.
  // Records are still materialized (the Trace owns its data); only the
  // ingestion path is zero-copy.
  const MappedFile file = MappedFile::open(path);
  if (has_binary_magic(file.view())) return read_binary(file.view());
  return read_text(file.view());
}

RecoveredTrace read_any_file_recover(const std::string& path) {
  const MappedFile file = MappedFile::open(path);
  if (has_binary_magic(file.view())) return read_binary_recover(file.view());
  RecoveredTrace result;
  try {
    result.trace = read_text(file.view());
  } catch (const Error& e) {
    // The text parser has no partial-salvage mode: report and bail.
    result.damage.unusable = true;
    result.damage.issues.push_back(DamageIssue{0, -1, 0, e.what()});
  }
  return result;
}

std::string Damage::render_text() const {
  if (clean()) return "";
  std::string out = "trace damage report:\n";
  for (const DamageIssue& issue : issues) {
    out += strprintf("  offset %llu",
                     static_cast<unsigned long long>(issue.offset));
    if (issue.rank >= 0) {
      out += strprintf(" rank %d record %llu", issue.rank,
                       static_cast<unsigned long long>(issue.record));
    }
    out += ": " + issue.message + "\n";
  }
  out += strprintf(
      "  records salvaged: %llu, dropped: %llu, crc mismatches: %llu%s%s\n",
      static_cast<unsigned long long>(records_salvaged),
      static_cast<unsigned long long>(records_dropped),
      static_cast<unsigned long long>(crc_mismatches),
      truncated ? ", input truncated" : "",
      unusable ? ", nothing salvaged" : "");
  return out;
}

}  // namespace osim::trace
