// Unit tests for the trace IR: records, builder, structural validation and
// text (de)serialization.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "common/bytes.hpp"
#include "common/expect.hpp"
#include "trace/annotated.hpp"
#include "trace/annotated_io.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace osim::trace {
namespace {

Trace pingpong() {
  TraceBuilder b(2, 2300.0, "pingpong");
  b.compute(0, 1000).send(0, 1, 7, 4096).recv(0, 1, 8, 4096);
  b.compute(1, 500).recv(1, 0, 7, 4096).compute(1, 200).send(1, 0, 8, 4096);
  return std::move(b).build();
}

// --- record formatting ------------------------------------------------------

TEST(Record, ToString) {
  EXPECT_EQ(to_string(CpuBurst{42}), "compute(42)");
  EXPECT_EQ(to_string(Send{3, 7, 64, false, kNoRequest}),
            "send(dest=3, tag=7, bytes=64)");
  EXPECT_EQ(to_string(Send{3, 7, 64, true, 5}),
            "isend(dest=3, tag=7, bytes=64, req=5)");
  EXPECT_EQ(to_string(Send{3, 7, 64, false, kNoRequest, true}),
            "send!(dest=3, tag=7, bytes=64)");
  EXPECT_EQ(to_string(Recv{1, 2, 8, true, 9}),
            "irecv(src=1, tag=2, bytes=8, req=9)");
  EXPECT_EQ(to_string(Wait{{1, 2}}), "wait(1, 2)");
  EXPECT_EQ(to_string(GlobalOp{CollectiveKind::kAllreduce, 0, 8, 3}),
            "allreduce(root=0, bytes=8, seq=3)");
}

TEST(Record, CollectiveNames) {
  EXPECT_STREQ(collective_name(CollectiveKind::kBarrier), "barrier");
  EXPECT_STREQ(collective_name(CollectiveKind::kAlltoall), "alltoall");
}

// --- builder / accessors ------------------------------------------------------

TEST(Trace, MakeAndTotals) {
  const Trace t = pingpong();
  EXPECT_EQ(t.num_ranks, 2);
  EXPECT_EQ(t.total_records(), 7u);
  EXPECT_EQ(t.total_instructions(0), 1000u);
  EXPECT_EQ(t.total_instructions(1), 700u);
  EXPECT_EQ(t.total_p2p_bytes_sent(0), 4096u);
  EXPECT_EQ(t.total_p2p_bytes_sent(1), 4096u);
}

TEST(Trace, BuilderSkipsZeroBursts) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 0);
  EXPECT_EQ(std::move(b).build().total_records(), 0u);
}

// --- serialization round trips -----------------------------------------------------

TEST(Io, RoundTripPreservesEverything) {
  TraceBuilder b(3, 2300.0, "roundtrip");
  b.compute(0, 12345)
      .send(0, 1, 7, 100)
      .isend(0, 2, 8, 200, 11)
      .wait(0, {11})
      .global(0, CollectiveKind::kAllreduce, 0, 8, 0);
  b.recv(1, 0, 7, 100)
      .compute(1, 9)
      .global(1, CollectiveKind::kAllreduce, 0, 8, 0);
  b.irecv(2, 0, 8, 200, 4)
      .wait(2, {4})
      .global(2, CollectiveKind::kAllreduce, 0, 8, 0);
  const Trace original = std::move(b).build();

  const Trace parsed = read_text(write_text(original));
  EXPECT_EQ(parsed.num_ranks, original.num_ranks);
  EXPECT_DOUBLE_EQ(parsed.mips, original.mips);
  EXPECT_EQ(parsed.app, original.app);
  ASSERT_EQ(parsed.total_records(), original.total_records());
  for (Rank r = 0; r < original.num_ranks; ++r) {
    const auto& a = original.ranks[static_cast<std::size_t>(r)];
    const auto& c = parsed.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(to_string(a[i]), to_string(c[i]));
    }
  }
}

TEST(Io, RoundTripSynchronousSend) {
  TraceBuilder b(2, 1000.0);
  b.isend(0, 1, 3, 64, 1);
  std::get<Send>(b.peek().ranks[0][0]);  // sanity: record exists
  Trace t = std::move(b).build();
  std::get<Send>(t.ranks[0][0]).synchronous = true;
  t.ranks[1].push_back(Recv{0, 3, 64, false, kNoRequest});
  t.ranks[0].push_back(Wait{{1}});
  const Trace parsed = read_text(write_text(t));
  EXPECT_TRUE(std::get<Send>(parsed.ranks[0][0]).synchronous);
}

TEST(Io, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/osim_trace_test.trace";
  const Trace t = pingpong();
  write_text_file(t, path);
  const Trace parsed = read_any_file(path);
  EXPECT_EQ(parsed.total_records(), t.total_records());
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "#OSIM-TRACE v1\n"
      "meta ranks 1\n"
      "\n"
      "# a comment\n"
      "rank 0\n"
      "c 5  # trailing comment\n";
  const Trace t = read_text(text);
  EXPECT_EQ(t.total_instructions(0), 5u);
}

// --- parser error cases ----------------------------------------------------------

TEST(Io, MissingHeaderThrows) {
  EXPECT_THROW(read_text("meta ranks 1\n"), Error);
}

TEST(Io, MissingRanksThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nrank 0\nc 5\n"), Error);
}

TEST(Io, RecordBeforeRankThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nc 5\n"), Error);
}

TEST(Io, UnknownRecordThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 0\nz 5\n"),
               Error);
}

TEST(Io, BadArityThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 2\nrank 0\ns 1 2\n"),
               Error);
}

TEST(Io, RankOutOfRangeThrows) {
  EXPECT_THROW(read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 3\n"), Error);
}

TEST(Io, UnknownCollectiveThrows) {
  EXPECT_THROW(
      read_text("#OSIM-TRACE v1\nmeta ranks 1\nrank 0\ng bogus 0 8 0\n"),
      Error);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_any_file("/nonexistent/path/x.trace"), Error);
}

// --- binary serialization ---------------------------------------------------------

TEST(BinaryIo, RoundTripMatchesTextRendering) {
  TraceBuilder b(3, 2300.0, "binary");
  b.compute(0, 987654321)
      .send(0, 1, 7, 100)
      .isend(0, 2, 8, 200, 11)
      .wait(0, {11})
      .global(0, CollectiveKind::kAllreduce, 0, 8, 0);
  b.recv(1, 0, 7, 100).global(1, CollectiveKind::kAllreduce, 0, 8, 0);
  b.irecv(2, 0, 8, 200, 4)
      .wait(2, {4})
      .global(2, CollectiveKind::kAllreduce, 0, 8, 0);
  Trace original = std::move(b).build();
  std::get<Send>(original.ranks[0][1]).synchronous = true;

  const Trace parsed = read_binary(write_binary(original));
  EXPECT_EQ(write_text(parsed), write_text(original));
}

TEST(BinaryIo, FileRoundTripAndSniffing) {
  const std::string bin_path = ::testing::TempDir() + "/osim_bin.btrace";
  const std::string txt_path = ::testing::TempDir() + "/osim_txt.trace";
  const Trace t = pingpong();
  write_binary_file(t, bin_path);
  write_text_file(t, txt_path);
  // read_any_file dispatches on the magic for both formats.
  EXPECT_EQ(write_text(read_any_file(bin_path)), write_text(t));
  EXPECT_EQ(write_text(read_any_file(txt_path)), write_text(t));
}

TEST(BinaryIo, BinarySmallerThanText) {
  TraceBuilder b(2, 1000.0);
  for (int i = 0; i < 200; ++i) {
    b.compute(0, 123456).send(0, 1, i, 8192);
    b.compute(1, 123456).recv(1, 0, i, 8192);
  }
  const Trace t = std::move(b).build();
  EXPECT_LT(write_binary(t).size(), write_text(t).size());
}

TEST(BinaryIo, TruncatedInputThrows) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 42);
  const std::string full = write_binary(std::move(b).build());
  for (const std::size_t cut : {4ul, 9ul, full.size() - 1}) {
    EXPECT_THROW(read_binary(full.substr(0, cut)), Error) << "cut at " << cut;
  }
}

TEST(BinaryIo, BadMagicThrows) {
  EXPECT_THROW(read_binary("definitely not a trace"), Error);
}

// The integrity footer is 8 magic bytes + one u32 CRC per rank.
constexpr std::size_t footer_size(std::size_t num_ranks) {
  return 8 + 4 * num_ranks;
}

TEST(BinaryIo, CorruptKindThrows) {
  TraceBuilder b(1, 1000.0);
  b.compute(0, 42);
  std::string bytes = write_binary(std::move(b).build());
  // The record-kind byte directly follows the rank-0 record count; the
  // single compute record is kind + varint(42) = 2 bytes before the footer.
  bytes[bytes.size() - footer_size(1) - 2] = 99;
  EXPECT_THROW(read_binary(bytes), Error);
}

TEST(BinaryIo, CorruptFooterCrcThrows) {
  const Trace t = pingpong();
  std::string bytes = write_binary(t);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);  // rank-1 CRC byte
  EXPECT_THROW(read_binary(bytes), Error);
}

TEST(BinaryIo, CorruptPayloadFailsCrc) {
  const Trace t = pingpong();
  std::string bytes = write_binary(t);
  // Flip a low bit inside rank 1's last record (a payload byte whose
  // corruption still parses: it only changes a value, not the framing).
  bytes[bytes.size() - footer_size(2) - 1] =
      static_cast<char>(bytes[bytes.size() - footer_size(2) - 1] ^ 0x01);
  EXPECT_THROW(read_binary(bytes), Error);
}

TEST(BinaryIo, LegacyTraceWithoutFooterLoads) {
  const Trace t = pingpong();
  std::string bytes = write_binary(t);
  bytes.resize(bytes.size() - footer_size(2));  // pre-footer writer output
  EXPECT_EQ(write_text(read_binary(bytes)), write_text(t));
  const RecoveredTrace recovered = read_binary_recover(bytes);
  EXPECT_TRUE(recovered.damage.clean());
  EXPECT_TRUE(recovered.damage.missing_footer);
}

TEST(BinaryIo, RecoverCleanInput) {
  const Trace t = pingpong();
  const RecoveredTrace recovered = read_binary_recover(write_binary(t));
  EXPECT_TRUE(recovered.damage.clean());
  EXPECT_FALSE(recovered.damage.missing_footer);
  EXPECT_EQ(recovered.damage.records_salvaged, 7u);
  EXPECT_EQ(write_text(recovered.trace), write_text(t));
}

TEST(BinaryIo, RecoverSalvagesTruncatedPrefix) {
  const Trace t = pingpong();
  const std::string full = write_binary(t);
  // Cut inside rank 1's stream: rank 0 must survive intact.
  const RecoveredTrace recovered =
      read_binary_recover(full.substr(0, full.size() - footer_size(2) - 3));
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_TRUE(recovered.damage.truncated);
  EXPECT_FALSE(recovered.damage.unusable);
  EXPECT_GT(recovered.damage.records_dropped, 0u);
  ASSERT_EQ(recovered.trace.num_ranks, 2);
  EXPECT_EQ(recovered.trace.ranks[0].size(), t.ranks[0].size());
  EXPECT_LT(recovered.trace.ranks[1].size(), t.ranks[1].size());
  ASSERT_FALSE(recovered.damage.issues.empty());
  EXPECT_GT(recovered.damage.issues[0].offset, 0u);
  EXPECT_FALSE(recovered.damage.render_text().empty());
}

TEST(BinaryIo, RecoverCrcMismatchKeepsRecords) {
  const Trace t = pingpong();
  std::string bytes = write_binary(t);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  const RecoveredTrace recovered = read_binary_recover(bytes);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_EQ(recovered.damage.crc_mismatches, 1u);
  EXPECT_EQ(recovered.damage.records_dropped, 0u);
  EXPECT_EQ(write_text(recovered.trace), write_text(t));
}

TEST(BinaryIo, RecoverBadMagicIsUnusable) {
  const RecoveredTrace recovered =
      read_binary_recover("definitely not a trace");
  EXPECT_TRUE(recovered.damage.unusable);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_EQ(recovered.trace.num_ranks, 0);
}

TEST(BinaryIo, RecoverAnyFileHandlesBrokenText) {
  const std::string path = ::testing::TempDir() + "/osim_broken.trace";
  {
    std::ofstream out(path);
    out << "#OSIM-TRACE v1\nmeta ranks 1\nrank 0\ng bogus 0 8 0\n";
  }
  const RecoveredTrace recovered = read_any_file_recover(path);
  EXPECT_TRUE(recovered.damage.unusable);
  ASSERT_EQ(recovered.damage.issues.size(), 1u);
}

// The footer ends the file: bytes after a valid footer are damage, not a
// clean read. The strict reader throws; the salvage reader keeps every
// record and reports the trailing bytes once, at their offset.
TEST(BinaryIo, BytesAfterTheFooterAreRejected) {
  const Trace t = pingpong();
  const std::string clean = write_binary(t);
  const std::string bytes = clean + "fourteen bytes";
  EXPECT_THROW(read_binary(bytes), Error);
  const RecoveredTrace recovered = read_binary_recover(bytes);
  EXPECT_FALSE(recovered.damage.clean());
  EXPECT_FALSE(recovered.damage.truncated);
  EXPECT_FALSE(recovered.damage.unusable);
  EXPECT_EQ(recovered.damage.records_salvaged, t.total_records());
  EXPECT_EQ(recovered.damage.records_dropped, 0u);
  EXPECT_EQ(recovered.damage.crc_mismatches, 0u);
  ASSERT_EQ(recovered.damage.issues.size(), 1u);
  EXPECT_EQ(recovered.damage.issues[0].offset, clean.size());
  EXPECT_EQ(recovered.damage.issues[0].rank, -1);
  EXPECT_NE(recovered.damage.issues[0].message.find("14 trailing byte"),
            std::string::npos)
      << recovered.damage.issues[0].message;
  EXPECT_EQ(write_text(recovered.trace), write_text(t));
}

// A NaN MIPS rate is as invalid as a negative one: it must be reported,
// not handed to Trace::make (whose invariant check aborts).
TEST(BinaryIo, NanMipsIsRejected) {
  std::string bytes = write_binary(pingpong());
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = '\xff';  // f64 NaN
  EXPECT_THROW(read_binary(bytes), Error);
  const RecoveredTrace recovered = read_binary_recover(bytes);
  EXPECT_TRUE(recovered.damage.unusable);
  ASSERT_EQ(recovered.damage.issues.size(), 1u);
  EXPECT_EQ(recovered.damage.issues[0].message,
            "binary trace: invalid MIPS rate");
}

// So is an infinite one, which would replay every burst in zero time: the
// binary header obeys the text formats' rules (valid_mips).
TEST(BinaryIo, InfiniteMipsIsRejected) {
  std::string bytes = write_binary(pingpong());
  std::string mips;
  bytes::Writer(mips).f64(std::numeric_limits<double>::infinity());
  bytes.replace(8, 8, mips);
  EXPECT_THROW(read_binary(bytes), Error);
  const RecoveredTrace recovered = read_binary_recover(bytes);
  EXPECT_TRUE(recovered.damage.unusable);
  ASSERT_EQ(recovered.damage.issues.size(), 1u);
  EXPECT_EQ(recovered.damage.issues[0].message,
            "binary trace: invalid MIPS rate");
}

// Rank fields are int32: a wider dest, src or root is refused, not
// truncated into another rank (2^32 + 1 used to become rank 1).
TEST(BinaryIo, RankFieldsOutsideInt32AreRejected) {
  for (const int kind : {1, 2, 4}) {  // Send, Recv, GlobalOp
    std::string bytes;
    bytes::Writer w(bytes);
    w.raw("OSIMBT01");
    w.f64(1000.0);
    w.varint(2);  // ranks
    w.varint(0);  // app name
    w.varint(1);  // rank 0: one record
    w.u8(static_cast<std::uint8_t>(kind));
    if (kind == 4) w.u8(1);  // bcast
    w.svarint((std::int64_t{1} << 32) + 1);
    if (kind != 4) w.svarint(7);  // tag
    w.varint(64);                 // bytes
    if (kind != 4) w.u8(0);       // flags
    w.svarint(kind == 4 ? 0 : -1);  // sequence / request
    w.varint(0);                    // rank 1: no records
    try {
      read_binary(bytes);
      ADD_FAILURE() << "record kind " << kind << " was accepted";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "binary trace: rank field out of range");
    }
  }
}

// --- annotated trace validation ---------------------------------------------------

AnnEvent make_send(std::uint64_t vclock, std::uint64_t interval_start,
                   std::uint64_t elems) {
  AnnEvent ev;
  ev.kind = AnnEvent::Kind::kSend;
  ev.vclock = vclock;
  ev.peer = 1;
  ev.tag = 0;
  ev.elem_bytes = 8;
  ev.bytes = elems * 8;
  ev.buffer_id = 0;
  ev.chunkable = elems > 1;
  ev.interval_start = interval_start;
  ev.elem_last_store.assign(elems, interval_start);
  return ev;
}

TEST(Annotated, AcceptsWellFormed) {
  AnnotatedTrace t = AnnotatedTrace::make(2, 2300.0, "x");
  t.ranks[0].events.push_back(make_send(100, 0, 4));
  t.ranks[0].final_vclock = 100;
  EXPECT_NO_THROW(validate(t));
}

TEST(Annotated, RejectsBackwardsClock) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  t.ranks[0].events.push_back(make_send(100, 0, 2));
  t.ranks[0].events.push_back(make_send(50, 0, 2));
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsAnnotationOutsideInterval) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 50, 2);
  ev.elem_last_store[0] = 10;  // before the interval start
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsWrongAnnotationLength) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 0, 4);
  ev.elem_last_store.resize(3);
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsChunkableWithoutAnnotations) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  AnnEvent ev = make_send(100, 0, 4);
  ev.elem_last_store.clear();
  t.ranks[0].events.push_back(ev);
  t.ranks[0].final_vclock = 100;
  EXPECT_THROW(validate(t), Error);
}

TEST(Annotated, RejectsFinalClockBeforeLastEvent) {
  AnnotatedTrace t = AnnotatedTrace::make(1, 1000.0);
  t.ranks[0].events.push_back(make_send(100, 0, 2));
  t.ranks[0].final_vclock = 50;
  EXPECT_THROW(validate(t), Error);
}

// --- annotated trace serialization -------------------------------------------------

AnnotatedTrace sample_annotated() {
  AnnotatedTrace t = AnnotatedTrace::make(2, 2300.0, "ann");
  AnnEvent send = make_send(100, 0, 4);
  send.elem_last_store[1] = kNeverAccessed;
  send.elem_last_store[2] = 42;
  t.ranks[0].events.push_back(send);
  AnnEvent isend = make_send(150, 100, 2);
  isend.kind = AnnEvent::Kind::kIsend;
  isend.request = 7;
  isend.tag = 3;
  t.ranks[0].events.push_back(isend);
  AnnEvent wait;
  wait.kind = AnnEvent::Kind::kWait;
  wait.vclock = 160;
  wait.wait_requests = {7};
  t.ranks[0].events.push_back(wait);
  AnnEvent global;
  global.kind = AnnEvent::Kind::kGlobalOp;
  global.vclock = 170;
  global.coll = CollectiveKind::kAllreduce;
  global.bytes = 8;
  global.coll_sequence = 0;
  t.ranks[0].events.push_back(global);
  t.ranks[0].final_vclock = 200;

  AnnEvent irecv;
  irecv.kind = AnnEvent::Kind::kIrecv;
  irecv.vclock = 10;
  irecv.request = 2;
  irecv.peer = 0;
  irecv.tag = 0;
  irecv.elem_bytes = 8;
  irecv.bytes = 32;
  irecv.buffer_id = 1;
  irecv.chunkable = true;
  irecv.interval_end = 300;
  irecv.elem_first_load = {20, kNeverAccessed, 50, 60};
  irecv.wait_event_index = 1;
  t.ranks[1].events.push_back(irecv);
  AnnEvent wait2;
  wait2.kind = AnnEvent::Kind::kWait;
  wait2.vclock = 15;
  wait2.wait_requests = {2};
  t.ranks[1].events.push_back(wait2);
  // An untracked receive (no per-element trailer).
  AnnEvent raw;
  raw.kind = AnnEvent::Kind::kRecv;
  raw.vclock = 100;
  raw.peer = 0;
  raw.tag = 3;
  raw.elem_bytes = 8;
  raw.bytes = 16;
  raw.buffer_id = -1;
  t.ranks[1].events.push_back(raw);
  t.ranks[1].final_vclock = 300;
  return t;
}

TEST(AnnotatedIo, RoundTripExact) {
  const AnnotatedTrace t = sample_annotated();
  const std::string text = write_annotated(t);
  const AnnotatedTrace parsed = read_annotated(text);
  EXPECT_EQ(write_annotated(parsed), text);
  EXPECT_EQ(parsed.num_ranks, 2);
  EXPECT_EQ(parsed.app, "ann");
  ASSERT_EQ(parsed.ranks[0].events.size(), 4u);
  ASSERT_EQ(parsed.ranks[1].events.size(), 3u);
  const AnnEvent& send = parsed.ranks[0].events[0];
  EXPECT_EQ(send.elem_last_store[1], kNeverAccessed);
  EXPECT_EQ(send.elem_last_store[2], 42u);
  const AnnEvent& irecv = parsed.ranks[1].events[0];
  EXPECT_EQ(irecv.wait_event_index, 1);
  EXPECT_EQ(irecv.elem_first_load[1], kNeverAccessed);
  EXPECT_TRUE(parsed.ranks[1].events[2].elem_first_load.empty());
}

TEST(AnnotatedIo, FileRoundTripAndTransformStable) {
  const std::string path = ::testing::TempDir() + "/osim_ann_test.ann";
  const AnnotatedTrace t = sample_annotated();
  write_annotated_file(t, path);
  const AnnotatedTrace parsed = read_annotated_file(path);
  EXPECT_EQ(write_annotated(parsed), write_annotated(t));
}

TEST(AnnotatedIo, ParserErrors) {
  EXPECT_THROW(read_annotated("not a header\n"), Error);
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 0\n"), Error);
  EXPECT_THROW(
      read_annotated(
          "#OSIM-ANNTRACE v1\nmeta ranks 1\ns 5 0 0 8 1 0 1 0\n"),
      Error);  // event before rank directive
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 1\n"
                              "rank 0 final 10\nz 1\n"),
               Error);
  // Wrong per-element count.
  EXPECT_THROW(read_annotated("#OSIM-ANNTRACE v1\nmeta ranks 2\n"
                              "rank 0 final 10\n"
                              "s 5 1 0 8 4 0 1 0 1 2\n"),
               Error);
}

}  // namespace
}  // namespace osim::trace
