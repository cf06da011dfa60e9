// Differential test for the one structural checker. lint::check_structure
// replaced trace::validate(const Trace&) as the replayer's precondition;
// the old checker is kept below verbatim as the reference, and the two
// must accept and reject the same traces — on named cases, on the fuzz
// corpus and on its salvaged and mutated variants — except for exactly
// three documented classes:
//   larger-recv       a receive buffer larger than its send (the replayer's
//                     matching rule, dimemas/matching.hpp): now accepted
//   wildcard-traffic  infeasible or unmatched traffic in a trace with a
//                     wildcard receive, which the old check skipped: now
//                     rejected
//   bad-root          a collective rooted at a rank the trace does not
//                     have: now rejected
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dimemas/replay.hpp"
#include "lint/lint.hpp"
#include "pipeline/context.hpp"
#include "pipeline/scenario.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"

#include "random_trace.hpp"

// The structural validator as it stood before check_structure replaced it,
// copied verbatim (src/trace/trace.cpp) as the differential reference.
namespace osim::trace::old_contract {

namespace {

[[noreturn]] void fail(Rank rank, std::size_t index, const Record& rec,
                       const std::string& why) {
  throw Error(strprintf("trace validation: rank %d record %zu [%s]: %s",
                        rank, index, to_string(rec).c_str(), why.c_str()));
}

}  // namespace

void validate(const Trace& trace) {
  if (trace.num_ranks <= 0) throw Error("trace has no ranks");
  if (trace.ranks.size() != static_cast<std::size_t>(trace.num_ranks)) {
    throw Error("trace rank-stream count does not match num_ranks");
  }
  if (trace.mips <= 0.0) throw Error("trace MIPS rate must be positive");

  // (src, dest, tag) -> queue of pending byte counts, for pairwise matching.
  std::map<std::tuple<Rank, Rank, Tag>, std::vector<std::uint64_t>> sends;
  std::map<std::tuple<Rank, Rank, Tag>, std::vector<std::uint64_t>> recvs;
  bool has_wildcard = false;

  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    std::set<ReqId> open_requests;
    std::set<ReqId> used_requests;
    const auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Record& rec = stream[i];
      if (const auto* send = std::get_if<Send>(&rec)) {
        if (send->dest < 0 || send->dest >= trace.num_ranks)
          fail(rank, i, rec, "destination rank out of range");
        if (send->dest == rank) fail(rank, i, rec, "self-send");
        if (send->immediate) {
          if (send->request == kNoRequest)
            fail(rank, i, rec, "immediate send without request id");
          if (!used_requests.insert(send->request).second)
            fail(rank, i, rec, "request id reused");
          open_requests.insert(send->request);
        }
        sends[{rank, send->dest, send->tag}].push_back(send->bytes);
      } else if (const auto* recv = std::get_if<Recv>(&rec)) {
        if (recv->src != kAnyRank &&
            (recv->src < 0 || recv->src >= trace.num_ranks))
          fail(rank, i, rec, "source rank out of range");
        if (recv->src == rank) fail(rank, i, rec, "self-receive");
        if (recv->immediate) {
          if (recv->request == kNoRequest)
            fail(rank, i, rec, "immediate recv without request id");
          if (!used_requests.insert(recv->request).second)
            fail(rank, i, rec, "request id reused");
          open_requests.insert(recv->request);
        }
        if (recv->src == kAnyRank || recv->tag == kAnyTag) {
          has_wildcard = true;
        } else {
          recvs[{recv->src, rank, recv->tag}].push_back(recv->bytes);
        }
      } else if (const auto* wait = std::get_if<Wait>(&rec)) {
        if (wait->requests.empty())
          fail(rank, i, rec, "wait on empty request list");
        for (const ReqId req : wait->requests) {
          if (open_requests.erase(req) == 0)
            fail(rank, i, rec,
                 strprintf("wait on unknown or completed request %lld",
                           static_cast<long long>(req)));
        }
      }
      // CpuBurst and GlobalOp have no per-record structural constraints
      // beyond types; GlobalOp cross-rank agreement is checked below.
    }
    if (!open_requests.empty()) {
      throw Error(strprintf(
          "trace validation: rank %d finishes with %zu uncompleted requests",
          rank, open_requests.size()));
    }
  }

  // Pairwise matching of point-to-point traffic (skipped when wildcards are
  // present — matching is then execution-order dependent).
  if (!has_wildcard) {
    for (const auto& [key, send_sizes] : sends) {
      const auto it = recvs.find(key);
      const std::size_t nrecv = it == recvs.end() ? 0 : it->second.size();
      if (nrecv != send_sizes.size()) {
        throw Error(strprintf(
            "trace validation: %zu sends but %zu recvs for src=%d dest=%d "
            "tag=%lld",
            send_sizes.size(), nrecv, std::get<0>(key), std::get<1>(key),
            static_cast<long long>(std::get<2>(key))));
      }
      for (std::size_t i = 0; i < send_sizes.size(); ++i) {
        if (send_sizes[i] != it->second[i]) {
          throw Error(strprintf(
              "trace validation: size mismatch (%llu vs %llu bytes) on "
              "message %zu of src=%d dest=%d tag=%lld",
              static_cast<unsigned long long>(send_sizes[i]),
              static_cast<unsigned long long>(it->second[i]), i,
              std::get<0>(key), std::get<1>(key),
              static_cast<long long>(std::get<2>(key))));
        }
      }
    }
    for (const auto& [key, recv_sizes] : recvs) {
      if (sends.find(key) == sends.end()) {
        throw Error(strprintf(
            "trace validation: %zu recvs with no matching send for src=%d "
            "dest=%d tag=%lld",
            recv_sizes.size(), std::get<0>(key), std::get<1>(key),
            static_cast<long long>(std::get<2>(key))));
      }
    }
  }

  // Global ops: every rank must see the same sequence of (kind, root, seq).
  std::vector<std::vector<GlobalOp>> per_rank_ops(
      static_cast<std::size_t>(trace.num_ranks));
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    for (const auto& rec : trace.ranks[static_cast<std::size_t>(rank)]) {
      if (const auto* op = std::get_if<GlobalOp>(&rec)) {
        per_rank_ops[static_cast<std::size_t>(rank)].push_back(*op);
      }
    }
  }
  for (Rank rank = 1; rank < trace.num_ranks; ++rank) {
    const auto& a = per_rank_ops[0];
    const auto& b = per_rank_ops[static_cast<std::size_t>(rank)];
    if (a.size() != b.size()) {
      throw Error(strprintf(
          "trace validation: rank 0 has %zu global ops but rank %d has %zu",
          a.size(), rank, b.size()));
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind != b[i].kind || a[i].root != b[i].root ||
          a[i].sequence != b[i].sequence) {
        throw Error(strprintf(
            "trace validation: global op %zu disagrees between rank 0 (%s) "
            "and rank %d (%s)",
            i, collective_name(a[i].kind), rank, collective_name(b[i].kind)));
      }
    }
  }
}

}  // namespace osim::trace::old_contract

namespace osim {
namespace {

using trace::CollectiveKind;
using trace::kAnyRank;
using trace::kAnyTag;
using trace::Rank;
using trace::Record;
using trace::Trace;
using trace::TraceBuilder;

bool old_accepts(const Trace& t, std::string* why = nullptr) {
  try {
    trace::old_contract::validate(t);
    return true;
  } catch (const Error& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

bool has_wildcard_recv(const Trace& t) {
  for (const auto& stream : t.ranks) {
    for (const Record& rec : stream) {
      const auto* recv = std::get_if<trace::Recv>(&rec);
      if (recv != nullptr &&
          (recv->src == kAnyRank || recv->tag == kAnyTag)) {
        return true;
      }
    }
  }
  return false;
}

/// "agree" when the old checker and check_structure give the same verdict;
/// otherwise the documented classes that explain the difference, joined
/// with '+', or "unexplained: ..." when none does.
std::string divergence(const Trace& t) {
  std::string why;
  const bool old_ok = old_accepts(t, &why);
  const lint::Report report = lint::check_structure(t);
  const bool new_ok = report.num_errors() == 0;
  if (old_ok == new_ok) return "agree";
  if (!old_ok) {
    // The old checker stops at its first problem; the only one the new
    // contract accepts is a receive larger than its send.
    unsigned long long send_bytes = 0;
    unsigned long long recv_bytes = 0;
    const std::size_t at = why.find("size mismatch (");
    if (at != std::string::npos &&
        std::sscanf(why.c_str() + at, "size mismatch (%llu vs %llu bytes)",
                    &send_bytes, &recv_bytes) == 2 &&
        recv_bytes > send_bytes) {
      return "larger-recv";
    }
    return "unexplained: old rejects (" + why + "), check_structure accepts";
  }
  std::set<std::string> classes;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.severity != lint::Severity::kError) continue;
    if (d.pass == "match" && has_wildcard_recv(t)) {
      classes.insert("wildcard-traffic");
    } else if (d.pass == "collectives" &&
               d.message.rfind("collective root rank", 0) == 0) {
      classes.insert("bad-root");
    } else {
      return "unexplained: old accepts, check_structure rejects:\n" +
             report.render_text();
    }
  }
  return join(std::vector<std::string>(classes.begin(), classes.end()), "+");
}

// --- named cases -------------------------------------------------------------

struct Case {
  const char* name;
  Trace trace;
  bool old_accepts;
  bool new_accepts;
  std::string divergence;
};

Trace pingpong() {
  TraceBuilder b(2, 2300.0, "pingpong");
  b.compute(0, 1000).send(0, 1, 7, 4096).recv(0, 1, 8, 4096);
  b.compute(1, 500).recv(1, 0, 7, 4096).compute(1, 200).send(1, 0, 8, 4096);
  return std::move(b).build();
}

Trace ring(std::uint64_t bytes, bool pre_post) {
  TraceBuilder b(3, 1000.0);
  for (Rank r = 0; r < 3; ++r) {
    if (pre_post) b.irecv(r, (r + 2) % 3, 5, bytes, /*request=*/r);
    b.send(r, (r + 1) % 3, 5, bytes);
    if (pre_post) {
      b.wait(r, {r});
    } else {
      b.recv(r, (r + 2) % 3, 5, bytes);
    }
  }
  return std::move(b).build();
}

std::vector<Case> named_cases() {
  std::vector<Case> cases;
  const auto both = [&](const char* name, Trace t, bool accepted) {
    cases.push_back(Case{name, std::move(t), accepted, accepted, "agree"});
  };
  const auto differs = [&](const char* name, Trace t, const char* why) {
    const bool now_accepted = std::string(why) == "larger-recv";
    cases.push_back(Case{name, std::move(t), !now_accepted, now_accepted, why});
  };

  // The former Validate.* cases of trace_test.
  both("well-formed pingpong", pingpong(), true);
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 0, 1, 8);
    both("self-send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 5, 1, 8);
    both("out-of-range destination", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    both("unmatched send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    b.recv(1, 0, 1, 16);
    differs("size mismatch: 16-byte recv of an 8-byte send",
            std::move(b).build(), "larger-recv");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.wait(0, {99});
    both("wait on unknown request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5).wait(0, {5}).wait(0, {5});
    b.recv(1, 0, 1, 8);
    both("double wait", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5);
    b.recv(1, 0, 1, 8);
    both("dangling request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.isend(0, 1, 1, 8, 5).wait(0, {5}).isend(0, 1, 1, 8, 5).wait(0, {5});
    b.recv(1, 0, 1, 8).recv(1, 0, 1, 8);
    both("reused request id", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 8, 0);
    both("collective disagreement", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    both("missing collective", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.irecv(0, 1, 3, 8, 1).wait(0, {1});
    b.isend(1, 0, 3, 8, 1).wait(1, {1});
    both("immediate ops", std::move(b).build(), true);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.recv(0, kAnyRank, kAnyTag, 8);
    b.send(1, 0, 42, 8);
    both("feasible wildcard", std::move(b).build(), true);
  }

  // Shape: what the old checker tested before any record.
  {
    Trace t;
    t.num_ranks = 0;
    both("no ranks", std::move(t), false);
  }
  {
    Trace t = pingpong();
    t.mips = 0.0;
    both("zero MIPS rate", std::move(t), false);
  }
  {
    Trace t = pingpong();
    t.ranks.pop_back();
    both("fewer record streams than ranks", std::move(t), false);
  }

  // The structural fixtures of lint_test.
  {
    TraceBuilder b(2, 1000.0);
    b.compute(0, 100);
    b.send(0, 1, 7, 64);
    b.compute(1, 100);
    both("lint: unmatched send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.recv(1, 0, 9, 32);
    both("lint: unmatched recv", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 3, 128);
    b.recv(1, 0, 3, 64);
    both("lint: recv smaller than its send", std::move(b).build(), false);
  }
  {
    TraceBuilder b(3, 1000.0);
    b.send(0, 2, 11, 256);
    b.send(1, 2, 12, 256);
    b.recv(2, kAnyRank, kAnyTag, 256);
    b.recv(2, kAnyRank, 12, 256);
    both("lint: wildcard recvs match any source and tag",
         std::move(b).build(), true);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 5, 64);
    b.recv(1, kAnyRank, kAnyTag, 64);
    b.recv(1, kAnyRank, kAnyTag, 64);
    differs("lint: infeasible wildcard assignment", std::move(b).build(),
            "wildcard-traffic");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.compute(0, 100);
    b.irecv(0, 1, 3, 64, /*request=*/5);
    b.send(1, 0, 3, 64);
    both("lint: leaked irecv request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 1, 8);
    b.recv(1, 0, 1, 8);
    b.wait(0, {42});
    both("lint: wait on unknown request", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.irecv(0, 1, 1, 8, /*request=*/0);
    b.wait(0, {0});
    b.wait(0, {0});
    b.send(1, 0, 1, 8);
    both("lint: double wait", std::move(b).build(), false);
  }
  // Deadlock is a semantic finding of lint_trace, not a structural one.
  both("lint: rendezvous send ring (deadlocks)", ring(100'000, false), true);
  both("lint: eager send ring", ring(64, false), true);
  both("lint: pre-posted irecv ring", ring(100'000, true), true);
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBarrier, 0, 0, 0);
    b.global(1, CollectiveKind::kBcast, 0, 8, 0);
    both("lint: mismatched collective kind", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kBarrier, 0, 0, 1);
    both("lint: missing collective", std::move(b).build(), false);
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kAllreduce, 0, 8, 0);
    b.global(1, CollectiveKind::kAllreduce, 0, 16, 0);
    both("lint: collective payload mismatch (a warning)",
         std::move(b).build(), true);
  }
  both("lint: empty trace", Trace::make(4, 1000.0), true);
  {
    TraceBuilder b(4, 1000.0);
    for (Rank r = 0; r < 4; ++r) {
      b.compute(r, 50'000);
      b.irecv(r, (r + 3) % 4, 1, 32'768, /*request=*/7);
      b.send(r, (r + 1) % 4, 1, 32'768);
      b.wait(r, {7});
      b.global(r, CollectiveKind::kAllreduce, 0, 8, 0);
    }
    both("lint: exchange with collectives", std::move(b).build(), true);
  }

  // One named case per documented divergence.
  {
    TraceBuilder b(2, 1000.0);
    b.send(0, 1, 7, 512);
    b.recv(1, 0, 7, 1024);
    differs("receive buffer larger than its send", std::move(b).build(),
            "larger-recv");
  }
  {
    TraceBuilder b(3, 1000.0);
    b.send(1, 0, 4, 64);
    b.recv(0, kAnyRank, 4, 64);
    b.send(2, 1, 9, 64);  // nobody receives this, wildcard or not
    differs("unmatched send beside a wildcard receive", std::move(b).build(),
            "wildcard-traffic");
  }
  {
    TraceBuilder b(2, 1000.0);
    b.global(0, CollectiveKind::kBcast, 9, 64, 0);
    b.global(1, CollectiveKind::kBcast, 9, 64, 0);
    differs("collective rooted at a nonexistent rank", std::move(b).build(),
            "bad-root");
  }
  return cases;
}

TEST(StructureDifferential, NamedCases) {
  for (const Case& c : named_cases()) {
    EXPECT_EQ(old_accepts(c.trace), c.old_accepts) << c.name;
    const lint::Report report = lint::check_structure(c.trace);
    EXPECT_EQ(report.num_errors() == 0, c.new_accepts)
        << c.name << "\n" << report.render_text();
    EXPECT_EQ(divergence(c.trace), c.divergence) << c.name;
  }
}

// --- the fuzz corpus ---------------------------------------------------------

class StructureCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructureCorpus, RandomTracesAgree) {
  EXPECT_EQ(divergence(fuzz::random_trace(GetParam())), "agree");
}

TEST_P(StructureCorpus, BitFlipSalvagedTracesDifferOnlyByDocumentedClasses) {
  const Trace t = fuzz::random_trace(GetParam());
  const std::string original = trace::write_binary(t);
  Rng rng(GetParam() * 101 + 13);
  for (int round = 0; round < 64; ++round) {
    std::string bytes = original;
    const int flips = static_cast<int>(1 + rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(bytes.size());
      bytes[pos] = static_cast<char>(
          bytes[pos] ^ static_cast<char>(1u << rng.below(8)));
    }
    const Trace salvaged = trace::read_binary_recover(bytes).trace;
    const std::string d = divergence(salvaged);
    EXPECT_EQ(d.rfind("unexplained", 0), std::string::npos)
        << "round " << round << ": " << d;
  }
}

/// `t` with one record of one rank changed: a field rewritten to a nearby
/// or out-of-range value (wildcards included), or the record dropped or
/// duplicated.
Trace mutate_one_record(Trace t, Rng& rng) {
  const auto rank = static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(t.num_ranks)));
  auto& stream = t.ranks[rank];
  if (stream.empty()) return t;
  const std::size_t i = rng.below(stream.size());
  const auto some_rank = [&] {
    return static_cast<Rank>(rng.below(
               static_cast<std::uint64_t>(t.num_ranks) + 2)) - 1;
  };
  switch (rng.below(4)) {
    case 0:
      stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    case 1:
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream[i]);
      return t;
    default:
      break;
  }
  Record& rec = stream[i];
  if (auto* send = std::get_if<trace::Send>(&rec)) {
    switch (rng.below(4)) {
      case 0: send->dest = some_rank(); break;
      case 1: send->tag += 1; break;
      case 2: send->bytes = rng.below(2) == 0 ? send->bytes / 2
                                              : send->bytes * 2;
              break;
      default: send->request = rng.below(2) == 0 ? trace::kNoRequest
                                                 : send->request + 1;
    }
  } else if (auto* recv = std::get_if<trace::Recv>(&rec)) {
    switch (rng.below(4)) {
      case 0: recv->src = some_rank(); break;
      case 1: recv->tag = rng.below(2) == 0 ? kAnyTag : recv->tag + 1; break;
      case 2: recv->bytes = rng.below(2) == 0 ? recv->bytes / 2
                                              : recv->bytes * 2;
              break;
      default: recv->request = rng.below(2) == 0 ? trace::kNoRequest
                                                 : recv->request + 1;
    }
  } else if (auto* wait = std::get_if<trace::Wait>(&rec)) {
    if (rng.below(2) == 0) {
      wait->requests.push_back(wait->requests.front());
    } else {
      wait->requests.front() += 1;
    }
  } else if (auto* op = std::get_if<trace::GlobalOp>(&rec)) {
    switch (rng.below(3)) {
      case 0: op->root = some_rank() + (rng.below(2) == 0 ? 0 : 8); break;
      case 1: op->sequence += 1; break;
      default: op->kind = op->kind == CollectiveKind::kBarrier
                              ? CollectiveKind::kBcast
                              : CollectiveKind::kBarrier;
    }
  } else if (auto* burst = std::get_if<trace::CpuBurst>(&rec)) {
    burst->instructions += 1;
  }
  return t;
}

TEST_P(StructureCorpus, OneRecordMutationsDifferOnlyByDocumentedClasses) {
  const Trace t = fuzz::random_trace(GetParam());
  Rng rng(GetParam() * 977 + 31);
  for (int round = 0; round < 64; ++round) {
    const std::string d = divergence(mutate_one_record(t, rng));
    EXPECT_EQ(d.rfind("unexplained", 0), std::string::npos)
        << "round " << round << ": " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureCorpus,
                         ::testing::Range<std::uint64_t>(1, 33));

// --- the size rule through ReplayContext -------------------------------------

dimemas::Platform two_nodes() {
  dimemas::Platform p;
  p.num_nodes = 2;
  p.bandwidth_MBps = 250.0;
  p.latency_us = 4.0;
  return p;
}

TEST(StructureContract, LargerRecvReplaysWithTheSendsBytes) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 7, 512);
  b.recv(1, 0, 7, 1024);
  const pipeline::ReplayContext context(std::move(b).build(), two_nodes());
  const dimemas::SimResult result = pipeline::run_scenario(context);
  ASSERT_EQ(result.rank_stats.size(), 2u);
  EXPECT_EQ(result.rank_stats[0].bytes_sent, 512u);
  EXPECT_EQ(result.rank_stats[1].bytes_received, 512u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(StructureContract, SmallerRecvIsRejectedNamingTheRecord) {
  TraceBuilder b(2, 1000.0);
  b.send(0, 1, 7, 1024);
  b.compute(1, 100);
  b.recv(1, 0, 7, 512);  // rank 1 record 1
  try {
    const pipeline::ReplayContext context(std::move(b).build(), two_nodes());
    FAIL() << "a receive smaller than its send was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("ReplayContext: trace failed validation:\n", 0), 0u)
        << what;
    EXPECT_NE(what.find("error [match] rank 1 record 1: recv from rank 0 "
                        "tag 7 (512 bytes) is smaller than its matching send"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace osim
