// Differential test for the text input readers. trace/io.cpp,
// trace/annotated_io.cpp and dimemas/platform_io.cpp parse the mapped
// bytes through one checked cursor (common/line_cursor.hpp). The istream
// parsers they replaced are kept below verbatim as the reference, with the
// split_ws and parse_f64 they called (parse_f64 accepted nan and inf). On every input both
// readers of a format must agree: the same trace or platform (compared
// through the writers, which print every field exactly), or both throw.
//
// Inputs: every single-byte flip (three masks per byte) and every
// truncation of tests/golden/trace_codec.trace, annotated_codec.ann and
// platform_codec.cfg (which sets every platform key). The named
// differences (ReferenceDifference below) are the input contract itself:
// a number that is not finite and an integer outside its field's range,
// which the reference accepted (or aborted on) and the new readers refuse.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/platform.hpp"
#include "dimemas/platform_io.hpp"
#include "trace/annotated.hpp"
#include "trace/annotated_io.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace osim {
namespace reference {

// --- copied verbatim: common/strings.cpp ----------------------------------

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    const size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

// strtoX wrappers need a NUL-terminated buffer; string_views into larger
// buffers are copied first.
template <typename T, typename Fn>
std::optional<T> parse_with(std::string_view text, Fn fn) {
  const std::string buf{trim(text)};
  if (buf.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const T value = fn(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_f64(std::string_view text) {
  return parse_with<double>(
      text, [](const char* s, char** end) { return std::strtod(s, end); });
}

}  // namespace reference

namespace trace::reference {

using osim::reference::parse_f64;
using osim::reference::split_ws;

// --- copied verbatim: trace/io.cpp ----------------------------------------

namespace {

constexpr const char* kHeader = "#OSIM-TRACE v1";

std::optional<CollectiveKind> collective_from_name(std::string_view name) {
  static constexpr CollectiveKind kAll[] = {
      CollectiveKind::kBarrier,  CollectiveKind::kBcast,
      CollectiveKind::kReduce,   CollectiveKind::kAllreduce,
      CollectiveKind::kGather,   CollectiveKind::kAllgather,
      CollectiveKind::kScatter,  CollectiveKind::kAlltoall,
      CollectiveKind::kScan,
  };
  for (const CollectiveKind kind : kAll) {
    if (name == collective_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace

namespace {

class Parser {
 public:
  explicit Parser(std::istream& in) : in_(in) {}

  Trace parse() {
    expect_header();
    parse_meta();
    Trace trace = Trace::make(ranks_, mips_, app_);
    Rank current = -1;
    std::string line;
    while (next_line(line)) {
      const auto tokens = split_ws(line);
      if (tokens.empty()) continue;
      const std::string& op = tokens[0];
      if (op == "rank") {
        current = to_rank(field(tokens, 1));
        if (current < 0 || current >= ranks_) fail("rank out of range");
        continue;
      }
      if (current < 0) fail("record before any 'rank' directive");
      auto& stream = trace.ranks[static_cast<std::size_t>(current)];
      if (op == "c") {
        stream.push_back(CpuBurst{to_u64(field(tokens, 1))});
        require_arity(tokens, 2);
      } else if (op == "s" || op == "s!") {
        require_arity(tokens, 4);
        stream.push_back(Send{to_rank(tokens[1]), to_tag(tokens[2]),
                              to_u64(tokens[3]), false, kNoRequest,
                              op == "s!"});
      } else if (op == "is" || op == "is!") {
        require_arity(tokens, 5);
        stream.push_back(Send{to_rank(tokens[1]), to_tag(tokens[2]),
                              to_u64(tokens[3]), true, to_tag(tokens[4]),
                              op == "is!"});
      } else if (op == "r") {
        require_arity(tokens, 4);
        stream.push_back(Recv{to_rank(tokens[1]), to_tag(tokens[2]),
                              to_u64(tokens[3]), false, kNoRequest});
      } else if (op == "ir") {
        require_arity(tokens, 5);
        stream.push_back(Recv{to_rank(tokens[1]), to_tag(tokens[2]),
                              to_u64(tokens[3]), true, to_tag(tokens[4])});
      } else if (op == "w") {
        if (tokens.size() < 2) fail("wait needs at least one request id");
        Wait wait;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          wait.requests.push_back(to_tag(tokens[i]));
        }
        stream.push_back(std::move(wait));
      } else if (op == "g") {
        require_arity(tokens, 5);
        const auto kind = collective_from_name(tokens[1]);
        if (!kind) fail("unknown collective '" + tokens[1] + "'");
        stream.push_back(GlobalOp{*kind, to_rank(tokens[2]),
                                  to_u64(tokens[3]),
                                  static_cast<std::int64_t>(
                                      to_tag(tokens[4]))});
      } else {
        fail("unknown record type '" + op + "'");
      }
    }
    return trace;
  }

 private:
  bool next_line(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (!trim(line).empty()) return true;
    }
    return false;
  }

  void expect_header() {
    std::string line;
    if (!std::getline(in_, line)) fail("empty trace file");
    ++line_number_;
    if (trim(line) != kHeader) fail("missing '#OSIM-TRACE v1' header");
  }

  void parse_meta() {
    std::string line;
    // Meta lines must come as a contiguous block before the first rank.
    while (in_.peek() != EOF) {
      const auto pos = in_.tellg();
      if (!next_line(line)) break;
      const auto tokens = split_ws(line);
      if (tokens.empty()) continue;
      if (tokens[0] != "meta") {
        in_.seekg(pos);
        --line_number_;
        break;
      }
      require_arity(tokens, 3);
      if (tokens[1] == "app") {
        app_ = tokens[2] == "-" ? "" : tokens[2];
      } else if (tokens[1] == "ranks") {
        ranks_ = to_rank(tokens[2]);
        if (ranks_ <= 0) fail("ranks must be positive");
      } else if (tokens[1] == "mips") {
        const auto parsed = parse_f64(tokens[2]);
        if (!parsed || *parsed <= 0.0) fail("bad mips value");
        mips_ = *parsed;
      } else {
        fail("unknown meta key '" + tokens[1] + "'");
      }
    }
    if (ranks_ <= 0) fail("trace file missing 'meta ranks'");
  }

  const std::string& field(const std::vector<std::string>& tokens,
                           std::size_t index) {
    if (index >= tokens.size()) fail("missing field");
    return tokens[index];
  }

  void require_arity(const std::vector<std::string>& tokens,
                     std::size_t expected) {
    if (tokens.size() != expected) {
      fail(strprintf("expected %zu fields, got %zu", expected,
                     tokens.size()));
    }
  }

  Rank to_rank(const std::string& text) {
    const auto parsed = parse_i64(text);
    if (!parsed) fail("bad rank '" + text + "'");
    return static_cast<Rank>(*parsed);
  }

  Tag to_tag(const std::string& text) {
    const auto parsed = parse_i64(text);
    if (!parsed) fail("bad integer '" + text + "'");
    return *parsed;
  }

  std::uint64_t to_u64(const std::string& text) {
    const auto parsed = parse_u64(text);
    if (!parsed) fail("bad unsigned integer '" + text + "'");
    return *parsed;
  }

  [[noreturn]] void fail(const std::string& why) {
    throw Error(strprintf("trace parse error at line %d: %s", line_number_,
                          why.c_str()));
  }

  std::istream& in_;
  int line_number_ = 0;
  Rank ranks_ = 0;
  double mips_ = 1000.0;
  std::string app_;
};

}  // namespace

Trace read_text(std::istream& in) { return Parser(in).parse(); }

Trace read_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

// --- copied verbatim: trace/annotated_io.cpp ------------------------------

namespace annotated {

namespace {

constexpr const char* kHeader = "#OSIM-ANNTRACE v1";

std::optional<CollectiveKind> collective_from_name(std::string_view name) {
  static constexpr CollectiveKind kAll[] = {
      CollectiveKind::kBarrier,  CollectiveKind::kBcast,
      CollectiveKind::kReduce,   CollectiveKind::kAllreduce,
      CollectiveKind::kGather,   CollectiveKind::kAllgather,
      CollectiveKind::kScatter,  CollectiveKind::kAlltoall,
      CollectiveKind::kScan,
  };
  for (const CollectiveKind kind : kAll) {
    if (name == collective_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace

namespace {

class Parser {
 public:
  explicit Parser(std::istream& in) : in_(in) {}

  AnnotatedTrace parse() {
    expect_header();
    parse_meta();
    AnnotatedTrace trace = AnnotatedTrace::make(ranks_, mips_, app_);
    Rank current = -1;
    std::string line;
    while (next_line(line)) {
      const auto tokens = split_ws(line);
      if (tokens.empty()) continue;
      const std::string& op = tokens[0];
      if (op == "rank") {
        require_min(tokens, 4);
        if (tokens[2] != "final") fail("expected 'rank N final CLOCK'");
        current = to_i<Rank>(tokens[1]);
        if (current < 0 || current >= ranks_) fail("rank out of range");
        trace.ranks[static_cast<std::size_t>(current)].final_vclock =
            to_u64(tokens[3]);
        continue;
      }
      if (current < 0) fail("event before any 'rank' directive");
      auto& events =
          trace.ranks[static_cast<std::size_t>(current)].events;

      AnnEvent ev;
      std::size_t i = 1;
      if (op == "s" || op == "is") {
        ev.kind = op == "is" ? AnnEvent::Kind::kIsend : AnnEvent::Kind::kSend;
        ev.vclock = to_u64(field(tokens, i++));
        if (op == "is") ev.request = to_i<ReqId>(field(tokens, i++));
        ev.peer = to_i<Rank>(field(tokens, i++));
        ev.tag = to_i<Tag>(field(tokens, i++));
        ev.elem_bytes = to_i<std::uint32_t>(field(tokens, i++));
        const std::uint64_t nelems = to_u64(field(tokens, i++));
        ev.bytes = nelems * ev.elem_bytes;
        ev.buffer_id = to_i<std::int64_t>(field(tokens, i++));
        ev.chunkable = to_u64(field(tokens, i++)) != 0;
        ev.interval_start = to_u64(field(tokens, i++));
        read_times(tokens, i, nelems, &ev.elem_last_store);
      } else if (op == "r" || op == "ir") {
        ev.kind =
            op == "ir" ? AnnEvent::Kind::kIrecv : AnnEvent::Kind::kRecv;
        ev.vclock = to_u64(field(tokens, i++));
        if (op == "ir") ev.request = to_i<ReqId>(field(tokens, i++));
        ev.peer = to_i<Rank>(field(tokens, i++));
        ev.tag = to_i<Tag>(field(tokens, i++));
        ev.elem_bytes = to_i<std::uint32_t>(field(tokens, i++));
        const std::uint64_t nelems = to_u64(field(tokens, i++));
        ev.bytes = nelems * ev.elem_bytes;
        ev.buffer_id = to_i<std::int64_t>(field(tokens, i++));
        ev.chunkable = to_u64(field(tokens, i++)) != 0;
        ev.interval_end = to_u64(field(tokens, i++));
        ev.wait_event_index = to_i<std::int64_t>(field(tokens, i++));
        read_times(tokens, i, nelems, &ev.elem_first_load);
      } else if (op == "w") {
        ev.kind = AnnEvent::Kind::kWait;
        ev.vclock = to_u64(field(tokens, i++));
        while (i < tokens.size()) {
          ev.wait_requests.push_back(to_i<ReqId>(tokens[i++]));
        }
        if (ev.wait_requests.empty()) fail("wait with no requests");
      } else if (op == "g") {
        ev.kind = AnnEvent::Kind::kGlobalOp;
        ev.vclock = to_u64(field(tokens, i++));
        const auto kind = collective_from_name(field(tokens, i++));
        if (!kind) fail("unknown collective");
        ev.coll = *kind;
        ev.root = to_i<Rank>(field(tokens, i++));
        ev.bytes = to_u64(field(tokens, i++));
        ev.coll_sequence = to_i<std::int64_t>(field(tokens, i++));
      } else {
        fail("unknown event type '" + op + "'");
      }
      events.push_back(std::move(ev));
    }
    validate(trace);
    return trace;
  }

 private:
  void read_times(const std::vector<std::string>& tokens, std::size_t from,
                  std::uint64_t nelems, std::vector<std::uint64_t>* out) {
    if (from >= tokens.size()) return;  // untracked: no trailer
    if (tokens.size() - from != nelems) {
      fail(strprintf("expected %llu per-element times, got %zu",
                     static_cast<unsigned long long>(nelems),
                     tokens.size() - from));
    }
    out->reserve(nelems);
    for (std::size_t i = from; i < tokens.size(); ++i) {
      out->push_back(tokens[i] == "-" ? kNeverAccessed : to_u64(tokens[i]));
    }
  }

  bool next_line(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (!trim(line).empty()) return true;
    }
    return false;
  }

  void expect_header() {
    std::string line;
    if (!std::getline(in_, line)) fail("empty annotated trace file");
    ++line_number_;
    if (trim(line) != kHeader) fail("missing '#OSIM-ANNTRACE v1' header");
  }

  void parse_meta() {
    std::string line;
    while (in_.peek() != EOF) {
      const auto pos = in_.tellg();
      if (!next_line(line)) break;
      const auto tokens = split_ws(line);
      if (tokens.empty()) continue;
      if (tokens[0] != "meta") {
        in_.seekg(pos);
        --line_number_;
        break;
      }
      require_min(tokens, 3);
      if (tokens[1] == "app") {
        app_ = tokens[2] == "-" ? "" : tokens[2];
      } else if (tokens[1] == "ranks") {
        ranks_ = to_i<Rank>(tokens[2]);
        if (ranks_ <= 0) fail("ranks must be positive");
      } else if (tokens[1] == "mips") {
        const auto parsed = parse_f64(tokens[2]);
        if (!parsed || *parsed <= 0.0) fail("bad mips value");
        mips_ = *parsed;
      } else {
        fail("unknown meta key '" + tokens[1] + "'");
      }
    }
    if (ranks_ <= 0) fail("annotated trace missing 'meta ranks'");
  }

  const std::string& field(const std::vector<std::string>& tokens,
                           std::size_t index) {
    if (index >= tokens.size()) fail("missing field");
    return tokens[index];
  }

  void require_min(const std::vector<std::string>& tokens,
                   std::size_t count) {
    if (tokens.size() < count) fail("too few fields");
  }

  template <typename T>
  T to_i(const std::string& text) {
    const auto parsed = parse_i64(text);
    if (!parsed) fail("bad integer '" + text + "'");
    return static_cast<T>(*parsed);
  }

  std::uint64_t to_u64(const std::string& text) {
    const auto parsed = parse_u64(text);
    if (!parsed) fail("bad unsigned integer '" + text + "'");
    return *parsed;
  }

  [[noreturn]] void fail(const std::string& why) {
    throw Error(strprintf("annotated trace parse error at line %d: %s",
                          line_number_, why.c_str()));
  }

  std::istream& in_;
  int line_number_ = 0;
  Rank ranks_ = 0;
  double mips_ = 1000.0;
  std::string app_;
};

}  // namespace

AnnotatedTrace read_annotated(std::istream& in) { return Parser(in).parse(); }

AnnotatedTrace read_annotated(const std::string& text) {
  std::istringstream is(text);
  return read_annotated(is);
}

}  // namespace annotated

}  // namespace trace::reference

namespace dimemas::reference {

using osim::reference::parse_f64;
using osim::reference::split_ws;

// --- copied verbatim: dimemas/platform_io.cpp -----------------------------

Platform read_platform(std::istream& in) {
  Platform p;
  bool have_nodes = false;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    auto fail = [&](const std::string& why) -> void {
      throw Error(strprintf("platform file line %d: %s", line_number,
                            why.c_str()));
    };
    if (tokens.size() != 2) fail("expected 'key value'");
    const std::string& key = tokens[0];
    const std::string& value = tokens[1];
    auto as_int = [&]() {
      const auto parsed = parse_i64(value);
      if (!parsed) fail("bad integer '" + value + "'");
      return static_cast<std::int32_t>(*parsed);
    };
    auto as_double = [&]() {
      const auto parsed = parse_f64(value);
      if (!parsed) fail("bad number '" + value + "'");
      return *parsed;
    };
    if (key == "nodes") {
      p.num_nodes = as_int();
      have_nodes = true;
      if (p.num_nodes <= 0) fail("nodes must be positive");
    } else if (key == "model") {
      if (value == "bus") {
        p.model = NetworkModelKind::kBus;
      } else if (value == "fairshare") {
        p.model = NetworkModelKind::kFairShare;
      } else {
        fail("unknown model '" + value + "' (bus | fairshare)");
      }
    } else if (key == "bandwidth_mbps") {
      p.bandwidth_MBps = as_double();
      if (p.bandwidth_MBps <= 0) fail("bandwidth must be positive");
    } else if (key == "latency_us") {
      p.latency_us = as_double();
      if (p.latency_us < 0) fail("latency must be non-negative");
    } else if (key == "overhead_us") {
      p.per_message_overhead_us = as_double();
      if (p.per_message_overhead_us < 0) fail("overhead must be non-negative");
    } else if (key == "buses") {
      p.num_buses = as_int();
      if (p.num_buses < 0) fail("buses must be non-negative");
    } else if (key == "input_ports") {
      p.input_ports = as_int();
      if (p.input_ports <= 0) fail("input_ports must be positive");
    } else if (key == "output_ports") {
      p.output_ports = as_int();
      if (p.output_ports <= 0) fail("output_ports must be positive");
    } else if (key == "eager_threshold") {
      const auto parsed = parse_u64(value);
      if (!parsed) fail("bad unsigned integer '" + value + "'");
      p.eager_threshold_bytes = *parsed;
    } else if (key == "relative_cpu_speed") {
      p.relative_cpu_speed = as_double();
      if (p.relative_cpu_speed <= 0) fail("cpu speed must be positive");
    } else if (key == "fabric_links") {
      p.fabric_capacity_links = as_double();
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!have_nodes) throw Error("platform file missing 'nodes'");
  return p;
}

Platform read_platform(const std::string& text) {
  std::istringstream is(text);
  return read_platform(is);
}

}  // namespace dimemas::reference

namespace {

std::string golden(const std::string& name) {
  std::ifstream in(std::string(OSIM_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One text format: its fixture and its two readers, each returning the
/// parsed value through the format's writer.
struct Format {
  const char* name;
  const char* fixture;
  std::string (*current)(const std::string& text);
  std::string (*reference)(const std::string& text);
};

void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

const Format kFormats[] = {
    {"Text", "trace_codec.trace",
     [](const std::string& text) {
       return trace::write_text(trace::read_text(text));
     },
     [](const std::string& text) {
       return trace::write_text(trace::reference::read_text(text));
     }},
    {"Annotated", "annotated_codec.ann",
     [](const std::string& text) {
       return trace::write_annotated(trace::read_annotated(text));
     },
     [](const std::string& text) {
       return trace::write_annotated(
           trace::reference::annotated::read_annotated(text));
     }},
    {"Platform", "platform_codec.cfg",
     [](const std::string& text) {
       return dimemas::write_platform(dimemas::read_platform(text));
     },
     [](const std::string& text) {
       return dimemas::write_platform(dimemas::reference::read_platform(text));
     }},
};

/// "ok <written form>" or "error: <message>".
std::string outcome(std::string (*read)(const std::string&),
                    const std::string& text) {
  try {
    return "ok " + read(text);
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

/// "" when both readers return the same value or both throw, otherwise
/// both outcomes.
std::string disagreement(const Format& format, const std::string& text) {
  const std::string got = outcome(format.current, text);
  const std::string want = outcome(format.reference, text);
  if (got == want || (got.rfind("error", 0) == 0 && want.rfind("error", 0) == 0)) {
    return "";
  }
  return "reader: " + got + "\nreference: " + want;
}

class TextDifferential : public ::testing::TestWithParam<Format> {};

TEST_P(TextDifferential, FixtureReadsTheSame) {
  const std::string text = golden(GetParam().fixture);
  ASSERT_FALSE(text.empty()) << GetParam().fixture;
  const std::string got = outcome(GetParam().current, text);
  EXPECT_EQ(got.rfind("ok ", 0), 0u) << got;
  EXPECT_EQ(got, outcome(GetParam().reference, text));
}

TEST_P(TextDifferential, EverySingleByteFlipReadsTheSame) {
  const std::string original = golden(GetParam().fixture);
  ASSERT_FALSE(original.empty());
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string text = original;
      text[pos] = static_cast<char>(static_cast<unsigned char>(text[pos]) ^
                                    mask);
      ASSERT_EQ(disagreement(GetParam(), text), "")
          << "flip " << mask << " at " << pos;
    }
  }
}

TEST_P(TextDifferential, EveryTruncationReadsTheSame) {
  const std::string original = golden(GetParam().fixture);
  ASSERT_FALSE(original.empty());
  for (std::size_t cut = 0; cut <= original.size(); ++cut) {
    ASSERT_EQ(disagreement(GetParam(), original.substr(0, cut)), "")
        << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, TextDifferential, ::testing::ValuesIn(kFormats),
    [](const ::testing::TestParamInfo<Format>& info) {
      return std::string(info.param.name);
    });

// --- the named differences: the input contract ------------------------------

/// The message `read` throws on `text`, or "accepted".
std::string error_of(std::string (*read)(const std::string&),
                     const std::string& text) {
  try {
    read(text);
    return "accepted";
  } catch (const Error& e) {
    return e.what();
  }
}

std::string text_trace(const std::string& ranks, const std::string& mips,
                       const std::string& records) {
  return "#OSIM-TRACE v1\nmeta app x\nmeta ranks " + ranks +
         "\nmeta mips " + mips + "\nrank 0\n" + records + "\n";
}

/// The annotated fixture with its untracked send line replaced.
std::string annotated_with_send(const std::string& send) {
  std::string text = golden("annotated_codec.ann");
  const std::string old = "s 200 1 8 4 2 -1 0 150";
  const std::size_t at = text.find(old);
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, old.size(), send);
}

const Format& format(const std::string& name) {
  for (const Format& f : kFormats) {
    if (name == f.name) return f;
  }
  OSIM_UNREACHABLE("unknown format");
}

#define EXPECT_NAMES(message, text)                                   \
  EXPECT_NE(std::string(message).find(text), std::string::npos)       \
      << message

// A number that is not finite. The reference replayed `meta mips inf` in
// zero time and aborted on `meta mips nan` (Trace::make's OSIM_CHECK); it
// took NaN and infinite platform values, which abort in the network model
// or the event queue, or poison every time they touch.
TEST(ReferenceDifference, NonFiniteNumbersAreRefused) {
  const Format& text = format("Text");
  const std::string inf_mips = text_trace("1", "inf", "c 100");
  EXPECT_TRUE(std::isinf(trace::reference::read_text(inf_mips).mips));
  EXPECT_NAMES(error_of(text.current, inf_mips), "trace line 4: mips: 'inf'");
  const std::string nan_mips = text_trace("1", "nan", "c 100");
  EXPECT_DEATH(trace::reference::read_text(nan_mips), "mips > 0.0");
  EXPECT_NAMES(error_of(text.current, nan_mips), "trace line 4: mips: 'nan'");

  std::string ann = golden("annotated_codec.ann");
  ann.replace(ann.find("2300.5"), 6, "nan");
  EXPECT_DEATH(trace::reference::annotated::read_annotated(ann), "mips > 0.0");
  EXPECT_NAMES(error_of(format("Annotated").current, ann),
               "annotated trace line 4: mips: 'nan'");

  for (const char* key : {"bandwidth_mbps", "latency_us", "overhead_us",
                          "relative_cpu_speed", "fabric_links"}) {
    for (const char* value : {"nan", "inf"}) {
      const std::string cfg =
          std::string("nodes 4\n") + key + " " + value + "\n";
      EXPECT_NO_THROW(dimemas::reference::read_platform(cfg)) << cfg;
      EXPECT_NAMES(error_of(format("Platform").current, cfg),
                   std::string("platform file line 2: ") + key + ": '" +
                       value + "' is not a finite number");
    }
  }
}

// An integer outside its field's range. The reference narrowed without a
// check: a rank count, a destination or a platform count of 2^32 + k
// became k, and an annotated element size of -1 became 2^32 - 1.
TEST(ReferenceDifference, OutOfRangeIntegersAreRefused) {
  const Format& text = format("Text");
  const std::string ranks = text_trace("4294967298", "1000", "c 100");
  EXPECT_EQ(trace::reference::read_text(ranks).num_ranks, 2);
  EXPECT_NAMES(error_of(text.current, ranks), "trace line 3: ranks");
  const std::string dest = text_trace("2", "1000", "s 4294967297 7 64");
  EXPECT_EQ(std::get<trace::Send>(trace::reference::read_text(dest).ranks[0][0])
                .dest,
            1);
  EXPECT_NAMES(error_of(text.current, dest), "trace line 6: dest");
  const std::string rank = "#OSIM-TRACE v1\nmeta ranks 1\nrank 4294967296\n";
  EXPECT_NO_THROW(trace::reference::read_text(rank));
  EXPECT_NAMES(error_of(text.current, rank), "trace line 3: rank");
  const std::string many = text_trace("2000000", "1000", "c 100");
  EXPECT_NAMES(error_of(text.current, many), "is outside [1, 1000000]");

  const Format& annotated = format("Annotated");
  for (const auto& [send, key] :
       {std::pair{"s 200 4294967297 8 4 2 -1 0 150", "peer"},
        std::pair{"s 200 1 8 -1 2 -1 0 150", "elem_bytes"},
        std::pair{"s 200 1 8 4 4611686018427387905 -1 0 150", "overflows"}}) {
    const std::string ann = annotated_with_send(send);
    EXPECT_NO_THROW(trace::reference::annotated::read_annotated(ann)) << send;
    EXPECT_NAMES(error_of(annotated.current, ann), key);
  }

  for (const auto& [line, key] :
       {std::pair{"nodes 4294967300", "nodes"},
        std::pair{"nodes 2000000", "nodes"},
        std::pair{"buses 4294967297", "buses"},
        std::pair{"input_ports 4294967297", "input_ports"}}) {
    const std::string cfg = std::string("nodes 4\n") + line + "\n";
    EXPECT_NO_THROW(dimemas::reference::read_platform(cfg)) << cfg;
    EXPECT_NAMES(error_of(format("Platform").current, cfg),
                 std::string("platform file line 2: ") + key + " must be");
  }
}

}  // namespace
}  // namespace osim
