// Differential test for the binary trace codec. trace/binary_io.cpp reads
// and writes OSIMBT01 through the shared byte codec (common/bytes.hpp),
// straight from a byte span. The stream reader and writer it replaced are
// kept below verbatim as the reference, over std::istringstream, with the
// incremental CRC they fed byte by byte. On every input both readers must
// agree exactly: the same trace and the same Damage (every issue's offset,
// rank, record and message, every flag and counter), and in strict mode
// the same success or the same error message. The writers must emit the
// same bytes.
//
// Inputs: random traces (seeds 1-32) under every single-byte flip (three
// masks per byte) and every truncation, and the original and overlap_real
// traces of the six bundled apps at 16 ranks. The one documented
// difference: bytes after a valid integrity footer, which the reference
// ignored and the codec reader reports (ReferenceDifference below).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/crc32.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "overlap/transform.hpp"
#include "random_trace.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"

namespace osim::trace {
namespace reference {

// --- copied verbatim: common/crc32.hpp ------------------------------------

namespace detail {
// The byte-at-a-time table the copied class indexes.
inline constexpr const auto& kCrc32Table = osim::detail::kCrc32Tables[0];
}  // namespace detail

/// Incremental CRC-32. Feed bytes with update(), read the digest with
/// value(); a fresh instance (or reset()) starts a new message.
class Crc32 {
 public:
  void update(std::uint8_t byte) {
    crc_ = detail::kCrc32Table[(crc_ ^ byte) & 0xFFu] ^ (crc_ >> 8);
  }
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) update(p[i]);
  }
  std::uint32_t value() const { return crc_ ^ 0xFFFFFFFFu; }
  void reset() { crc_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};


// --- copied verbatim: trace/binary_io.cpp ---------------------------------

constexpr char kMagic[8] = {'O', 'S', 'I', 'M', 'B', 'T', '0', '1'};
constexpr char kCrcMagic[8] = {'O', 'S', 'I', 'M', 'C', 'R', 'C', '1'};

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

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  /// LEB128 variable-length unsigned integer.
  void put_varint(std::uint64_t value) {
    while (value >= 0x80) {
      put_byte(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    put_byte(static_cast<std::uint8_t>(value));
  }

  /// Zigzag-encoded signed integer (small magnitudes stay small).
  void put_svarint(std::int64_t value) {
    put_varint((static_cast<std::uint64_t>(value) << 1) ^
               static_cast<std::uint64_t>(value >> 63));
  }

  void put_byte(std::uint8_t byte) {
    if (crc_ != nullptr) crc_->update(byte);
    out_.put(static_cast<char>(byte));
  }

  void put_double(double value) {
    if (crc_ != nullptr) crc_->update(&value, sizeof(value));
    out_.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  void put_bytes(const char* data, std::size_t n) {
    if (crc_ != nullptr) crc_->update(data, n);
    out_.write(data, static_cast<std::streamsize>(n));
  }

  void put_u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      put_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  /// Routes subsequent writes through `crc` (nullptr detaches).
  void set_crc(Crc32* crc) { crc_ = crc; }

  std::ostream& out_;
  Crc32* crc_ = nullptr;
};

/// Templated over the byte source: std::istream for stream callers, or
/// MemStream over a MappedFile for the zero-copy file path. Both expose the
/// same get/read/peek/clear/eof subset.
template <typename Stream>
class Reader {
 public:
  explicit Reader(Stream& in) : in_(in) {}

  std::uint64_t get_varint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t byte = get_byte();
      if (shift >= 64) throw Error("binary trace: varint overflow");
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  std::int64_t get_svarint() {
    const std::uint64_t raw = get_varint();
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  std::uint8_t get_byte() {
    const int c = in_.get();
    if (c == EOF) throw Error("binary trace: unexpected end of file");
    ++consumed_;
    const auto byte = static_cast<std::uint8_t>(c);
    if (crc_ != nullptr) crc_->update(byte);
    return byte;
  }

  double get_double() {
    double value = 0.0;
    in_.read(reinterpret_cast<char*>(&value), sizeof(value));
    if (!in_) throw Error("binary trace: unexpected end of file");
    consumed_ += sizeof(value);
    if (crc_ != nullptr) crc_->update(&value, sizeof(value));
    return value;
  }

  std::string get_string(std::size_t n) {
    std::string s(n, '\0');
    in_.read(s.data(), static_cast<std::streamsize>(n));
    if (!in_) throw Error("binary trace: unexpected end of file");
    consumed_ += n;
    if (crc_ != nullptr) crc_->update(s.data(), n);
    return s;
  }

  std::uint32_t get_u32() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(get_byte()) << (8 * i);
    }
    return value;
  }

  bool at_eof() {
    const int c = in_.peek();
    if (c == EOF) {
      in_.clear();
      return true;
    }
    return false;
  }

  /// Bytes consumed from the start of the stream (damage-report offsets).
  std::uint64_t consumed() const { return consumed_; }

  /// Routes subsequent reads through `crc` (nullptr detaches).
  void set_crc(Crc32* crc) { crc_ = crc; }

  Stream& in_;
  Crc32* crc_ = nullptr;
  std::uint64_t consumed_ = 0;
};

/// Parses one record into `stream`. Throws osim::Error on any corruption.
template <typename Stream>
void read_one_record(Reader<Stream>& r, std::vector<Record>& stream) {
  const std::uint8_t kind = r.get_byte();
  switch (kind) {
    case kKindCpu:
      stream.push_back(CpuBurst{r.get_varint()});
      break;
    case kKindSend: {
      Send send;
      send.dest = static_cast<Rank>(r.get_svarint());
      send.tag = r.get_svarint();
      send.bytes = r.get_varint();
      const std::uint8_t flags = r.get_byte();
      send.immediate = (flags & kFlagImmediate) != 0;
      send.synchronous = (flags & kFlagSynchronous) != 0;
      send.request = r.get_svarint();
      stream.push_back(send);
      break;
    }
    case kKindRecv: {
      Recv recv;
      recv.src = static_cast<Rank>(r.get_svarint());
      recv.tag = r.get_svarint();
      recv.bytes = r.get_varint();
      recv.immediate = (r.get_byte() & kFlagImmediate) != 0;
      recv.request = r.get_svarint();
      stream.push_back(recv);
      break;
    }
    case kKindWait: {
      const std::uint64_t n = r.get_varint();
      if (n == 0 || n > 1'000'000) {
        throw Error("binary trace: implausible wait size");
      }
      Wait wait;
      wait.requests.reserve(std::min(n, kMaxReserve));
      for (std::uint64_t k = 0; k < n; ++k) {
        wait.requests.push_back(r.get_svarint());
      }
      stream.push_back(std::move(wait));
      break;
    }
    case kKindGlobal: {
      GlobalOp op;
      const std::uint8_t coll = r.get_byte();
      if (coll > static_cast<std::uint8_t>(CollectiveKind::kScan)) {
        throw Error("binary trace: unknown collective kind");
      }
      op.kind = static_cast<CollectiveKind>(coll);
      op.root = static_cast<Rank>(r.get_svarint());
      op.bytes = r.get_varint();
      op.sequence = r.get_svarint();
      stream.push_back(op);
      break;
    }
    default:
      throw Error(strprintf("binary trace: unknown record kind %u",
                            static_cast<unsigned>(kind)));
  }
}

/// Shared strict/salvaging reader. `damage == nullptr` is strict mode:
/// every problem throws. With a Damage sink nothing throws; problems are
/// recorded and the longest valid prefix is returned.
template <typename Stream>
Trace read_binary_impl(Stream& in, Damage* damage) {
  Reader<Stream> r(in);
  const bool recover = damage != nullptr;

  auto report = [&](std::uint64_t offset, std::int32_t rank,
                    std::uint64_t record, const std::string& message) {
    if (!recover) throw Error(message);
    damage->issues.push_back(DamageIssue{offset, rank, record, message});
  };

  // --- header ------------------------------------------------------------
  Trace trace;
  std::uint64_t num_ranks = 0;
  try {
    const std::string magic = r.get_string(sizeof(kMagic));
    if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
      throw Error("binary trace: bad magic (not an OSIMBT01 file)");
    }
    const double mips = r.get_double();
    num_ranks = r.get_varint();
    if (num_ranks == 0 || num_ranks > 1'000'000) {
      throw Error("binary trace: implausible rank count");
    }
    if (mips <= 0.0) throw Error("binary trace: invalid MIPS rate");
    const std::uint64_t app_len = r.get_varint();
    if (app_len > 4096) throw Error("binary trace: implausible app name");
    trace = Trace::make(static_cast<std::int32_t>(num_ranks), mips,
                        r.get_string(app_len));
  } catch (const Error& e) {
    if (!recover) throw;
    damage->unusable = true;
    damage->issues.push_back(DamageIssue{r.consumed(), -1, 0, e.what()});
    return Trace{};
  }

  // --- per-rank record streams -------------------------------------------
  std::vector<std::uint32_t> rank_crcs;
  rank_crcs.reserve(std::min(num_ranks, kMaxReserve));
  bool desynchronized = false;
  for (std::uint64_t rank = 0; rank < num_ranks && !desynchronized; ++rank) {
    auto& stream = trace.ranks[rank];
    Crc32 crc;
    r.set_crc(&crc);
    std::uint64_t count = 0;
    std::uint64_t i = 0;
    try {
      count = r.get_varint();
      if (count > (std::uint64_t{1} << 40)) {
        throw Error("binary trace: implausible record count");
      }
      stream.reserve(std::min(count, kMaxReserve));
      for (; i < count; ++i) {
        read_one_record(r, stream);
      }
    } catch (const Error& e) {
      r.set_crc(nullptr);
      report(r.consumed(), static_cast<std::int32_t>(rank), i, e.what());
      // Recover mode from here on (report() threw in strict mode). The
      // framing has no resync point: the first corrupt byte ends the
      // salvage. Keep everything already parsed, drop the rest.
      if (in.eof()) damage->truncated = true;
      damage->records_dropped += count > i ? count - i : 0;
      if (rank + 1 < num_ranks) {
        damage->issues.push_back(DamageIssue{
            r.consumed(), static_cast<std::int32_t>(rank), i,
            strprintf("stream desynchronized: %llu later rank stream(s) "
                      "not recovered",
                      static_cast<unsigned long long>(num_ranks - rank - 1))});
      }
      desynchronized = true;
    }
    r.set_crc(nullptr);
    rank_crcs.push_back(crc.value());
    if (recover) damage->records_salvaged += stream.size();
  }

  // --- integrity footer ---------------------------------------------------
  if (!desynchronized) {
    if (r.at_eof()) {
      // Legacy trace written before the CRC footer existed: accept, warn.
      if (recover) damage->missing_footer = true;
      std::fprintf(stderr,
                   "warning: binary trace: no integrity footer (written by "
                   "an older version); CRC verification skipped\n");
    } else {
      const std::uint64_t footer_offset = r.consumed();
      try {
        const std::string magic = r.get_string(sizeof(kCrcMagic));
        if (std::memcmp(magic.data(), kCrcMagic, sizeof(kCrcMagic)) != 0) {
          throw Error(
              "binary trace: trailing bytes are not an OSIMCRC1 integrity "
              "footer");
        }
        for (std::uint64_t rank = 0; rank < num_ranks; ++rank) {
          const std::uint32_t stored = r.get_u32();
          if (stored != rank_crcs[rank]) {
            if (recover) ++damage->crc_mismatches;
            report(r.consumed(), static_cast<std::int32_t>(rank), 0,
                   strprintf("binary trace: rank %llu stream CRC mismatch "
                             "(stored %08x, computed %08x)",
                             static_cast<unsigned long long>(rank), stored,
                             rank_crcs[rank]));
          }
        }
      } catch (const Error& e) {
        if (!recover) throw;
        if (in.eof()) damage->truncated = true;
        damage->issues.push_back(
            DamageIssue{footer_offset, -1, 0,
                        std::string("bad integrity footer: ") + e.what()});
      }
    }
  }
  return trace;
}


void write_binary(const Trace& trace, std::ostream& out) {
  Writer w(out);
  w.put_bytes(kMagic, sizeof(kMagic));
  w.put_double(trace.mips);
  w.put_varint(static_cast<std::uint64_t>(trace.num_ranks));
  w.put_varint(trace.app.size());
  w.put_bytes(trace.app.data(), trace.app.size());
  std::vector<std::uint32_t> rank_crcs;
  rank_crcs.reserve(trace.ranks.size());
  for (const auto& stream : trace.ranks) {
    Crc32 crc;
    w.set_crc(&crc);
    w.put_varint(stream.size());
    for (const Record& rec : stream) {
      std::visit(
          [&w](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, CpuBurst>) {
              w.put_byte(kKindCpu);
              w.put_varint(r.instructions);
            } else if constexpr (std::is_same_v<T, Send>) {
              w.put_byte(kKindSend);
              w.put_svarint(r.dest);
              w.put_svarint(r.tag);
              w.put_varint(r.bytes);
              std::uint8_t flags = 0;
              if (r.immediate) flags |= kFlagImmediate;
              if (r.synchronous) flags |= kFlagSynchronous;
              w.put_byte(flags);
              w.put_svarint(r.request);
            } else if constexpr (std::is_same_v<T, Recv>) {
              w.put_byte(kKindRecv);
              w.put_svarint(r.src);
              w.put_svarint(r.tag);
              w.put_varint(r.bytes);
              w.put_byte(r.immediate ? kFlagImmediate : 0);
              w.put_svarint(r.request);
            } else if constexpr (std::is_same_v<T, Wait>) {
              w.put_byte(kKindWait);
              w.put_varint(r.requests.size());
              for (const ReqId req : r.requests) {
                w.put_svarint(req);
              }
            } else if constexpr (std::is_same_v<T, GlobalOp>) {
              w.put_byte(kKindGlobal);
              w.put_byte(static_cast<std::uint8_t>(r.kind));
              w.put_svarint(r.root);
              w.put_varint(r.bytes);
              w.put_svarint(r.sequence);
            }
          },
          rec);
    }
    w.set_crc(nullptr);
    rank_crcs.push_back(crc.value());
  }
  w.put_bytes(kCrcMagic, sizeof(kCrcMagic));
  for (const std::uint32_t crc : rank_crcs) w.put_u32(crc);
  if (!out) throw Error("binary trace: write error");
}

Trace read_binary(std::istream& in) { return read_binary_impl(in, nullptr); }

RecoveredTrace read_binary_recover(std::istream& in) {
  RecoveredTrace result;
  result.trace = read_binary_impl(in, &result.damage);
  return result;
}

std::string write_binary(const Trace& trace) {
  std::ostringstream os;
  write_binary(trace, os);
  return os.str();
}

}  // namespace reference

namespace {

/// Strict read: the trace's bytes (written by the codec writer, which
/// covers every field) or the error message.
std::string strict_outcome(const std::string& bytes, bool use_reference) {
  try {
    if (use_reference) {
      std::istringstream in(bytes);
      return "ok " + write_binary(reference::read_binary(in));
    }
    return "ok " + write_binary(read_binary(bytes));
  } catch (const Error& e) {
    return std::string("error ") + e.what();
  }
}

/// Every Damage field, rendered so a mismatch prints readably.
std::string describe(const RecoveredTrace& r) {
  const Damage& d = r.damage;
  std::string out = strprintf(
      "unusable=%d truncated=%d missing_footer=%d salvaged=%llu "
      "dropped=%llu crc=%llu\n",
      d.unusable, d.truncated, d.missing_footer,
      static_cast<unsigned long long>(d.records_salvaged),
      static_cast<unsigned long long>(d.records_dropped),
      static_cast<unsigned long long>(d.crc_mismatches));
  for (const DamageIssue& issue : d.issues) {
    out += strprintf("  offset=%llu rank=%d record=%llu %s\n",
                     static_cast<unsigned long long>(issue.offset),
                     issue.rank,
                     static_cast<unsigned long long>(issue.record),
                     issue.message.c_str());
  }
  return out;
}

/// Both readers, strict and salvaging, on `bytes`: "" when they agree,
/// otherwise both outcomes.
std::string disagreement(const std::string& bytes) {
  const std::string strict_new = strict_outcome(bytes, false);
  const std::string strict_ref = strict_outcome(bytes, true);
  if (strict_new != strict_ref) {
    return "strict: codec " + strict_new.substr(0, 200) + " | reference " +
           strict_ref.substr(0, 200);
  }
  const RecoveredTrace got = read_binary_recover(bytes);
  std::istringstream in(bytes);
  const RecoveredTrace want = reference::read_binary_recover(in);
  if (describe(got) != describe(want)) {
    return "damage: codec\n" + describe(got) + "reference\n" +
           describe(want);
  }
  if (write_binary(got.trace) != write_binary(want.trace)) {
    return "salvaged traces differ";
  }
  return "";
}

class CodecDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecDifferential, WritersEmitTheSameBytes) {
  const Trace t = fuzz::random_trace(GetParam());
  EXPECT_EQ(write_binary(t), reference::write_binary(t));
}

TEST_P(CodecDifferential, EverySingleByteFlipReadsTheSame) {
  const std::string original = write_binary(fuzz::random_trace(GetParam()));
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string bytes = original;
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     mask);
      const std::string d = disagreement(bytes);
      ASSERT_EQ(d, "") << "flip " << mask << " at " << pos;
    }
  }
}

TEST_P(CodecDifferential, EveryTruncationReadsTheSame) {
  const std::string original = write_binary(fuzz::random_trace(GetParam()));
  for (std::size_t cut = 0; cut <= original.size(); ++cut) {
    const std::string d = disagreement(original.substr(0, cut));
    ASSERT_EQ(d, "") << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecDifferential,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(CodecDifferential, BundledAppsAt16Ranks) {
  apps::AppConfig config;
  config.ranks = 16;
  config.iterations = 2;
  int apps_read = 0;
  for (const apps::MiniApp* app : apps::registry()) {
    ASSERT_TRUE(app->supports_ranks(config.ranks)) << app->name();
    const tracer::TracedRun traced = apps::trace_app(*app, config);
    for (const Trace& t : {overlap::lower_original(traced.annotated),
                           overlap::transform(traced.annotated, {})}) {
      const std::string bytes = write_binary(t);
      EXPECT_EQ(bytes, reference::write_binary(t)) << app->name();
      EXPECT_EQ(disagreement(bytes), "") << app->name();
      EXPECT_EQ(write_text(read_binary(bytes)), write_text(t)) << app->name();
    }
    ++apps_read;
  }
  EXPECT_EQ(apps_read, 6);
}

// The one named difference: the reference stopped after the footer and
// never looked at what followed; the codec reader's footer ends the file.
TEST(ReferenceDifference, BytesAfterAValidFooter) {
  const Trace t = fuzz::random_trace(7);
  const std::string clean = write_binary(t);
  const std::string bytes = clean + std::string(14, '\x5a');
  std::istringstream in(bytes);
  EXPECT_EQ(write_binary(reference::read_binary(in)), clean);
  EXPECT_THROW(read_binary(bytes), Error);

  const RecoveredTrace got = read_binary_recover(bytes);
  std::istringstream in2(bytes);
  const RecoveredTrace want = reference::read_binary_recover(in2);
  EXPECT_TRUE(want.damage.clean());
  EXPECT_EQ(write_binary(got.trace), write_binary(want.trace));
  ASSERT_EQ(got.damage.issues.size(), 1u);
  EXPECT_EQ(got.damage.issues[0].offset, clean.size());
  EXPECT_EQ(got.damage.records_salvaged, want.damage.records_salvaged);
  EXPECT_EQ(got.damage.records_dropped, 0u);
  EXPECT_FALSE(got.damage.truncated);
}

}  // namespace
}  // namespace osim::trace
