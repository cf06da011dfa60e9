#include "trace/io.hpp"

#include <fstream>
#include <sstream>

#include "common/expect.hpp"

namespace osim::trace {

namespace {

constexpr const char* kHeader = "#OSIM-TRACE v1";

}  // namespace

void write_text(const Trace& trace, std::ostream& out) {
  out << kHeader << "\n";
  out << "meta app " << (trace.app.empty() ? "-" : trace.app) << "\n";
  out << "meta ranks " << trace.num_ranks << "\n";
  out << "meta mips " << strprintf("%.17g", trace.mips) << "\n";
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    out << "rank " << rank << "\n";
    for (const Record& rec : trace.ranks[static_cast<std::size_t>(rank)]) {
      std::visit(
          [&out](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, CpuBurst>) {
              out << "c " << r.instructions << "\n";
            } else if constexpr (std::is_same_v<T, Send>) {
              const char* sync = r.synchronous ? "!" : "";
              if (r.immediate) {
                out << "is" << sync << ' ' << r.dest << ' ' << r.tag << ' '
                    << r.bytes << ' ' << r.request << "\n";
              } else {
                out << "s" << sync << ' ' << r.dest << ' ' << r.tag << ' '
                    << r.bytes << "\n";
              }
            } else if constexpr (std::is_same_v<T, Recv>) {
              if (r.immediate) {
                out << "ir " << r.src << ' ' << r.tag << ' ' << r.bytes << ' '
                    << r.request << "\n";
              } else {
                out << "r " << r.src << ' ' << r.tag << ' ' << r.bytes
                    << "\n";
              }
            } else if constexpr (std::is_same_v<T, Wait>) {
              out << "w";
              for (const ReqId req : r.requests) out << ' ' << req;
              out << "\n";
            } else if constexpr (std::is_same_v<T, GlobalOp>) {
              out << "g " << collective_name(r.kind) << ' ' << r.root << ' '
                  << r.bytes << ' ' << r.sequence << "\n";
            }
          },
          rec);
    }
  }
}

std::string write_text(const Trace& trace) {
  std::ostringstream os;
  write_text(trace, os);
  return os.str();
}

void write_text_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace output file: " + path);
  write_text(trace, out);
  if (!out) throw Error("error writing trace file: " + path);
}

TextHeader read_text_header(LineCursor& in, std::string_view magic,
                            bool extra_meta_fields) {
  in.expect_first_line(magic);
  TextHeader header;
  std::uint64_t ranks = 0;
  // Meta lines come as a contiguous block before the first rank.
  while (in.next()) {
    if (in.token(0) != "meta") {
      in.unread();
      break;
    }
    extra_meta_fields ? in.require_min(3) : in.require_size(3);
    const std::string_view key = in.token(1);
    if (key == "app") {
      header.app = in.token(2) == "-" ? "" : std::string(in.token(2));
    } else if (key == "ranks") {
      ranks = in.integer<std::uint64_t>(2, "ranks");
      if (!valid_rank_count(ranks)) {
        in.fail_token(2, "ranks",
                      "is outside [1, " + std::to_string(kMaxRanks) + "]");
      }
    } else if (key == "mips") {
      header.mips = in.number(2, "mips");
      if (!valid_mips(header.mips)) in.fail_token(2, "mips", "is not above 0");
    } else {
      in.fail("unknown meta key '" + std::string(key) + "'");
    }
  }
  if (ranks == 0) in.fail("missing 'meta ranks'");
  header.ranks = static_cast<std::int32_t>(ranks);
  return header;
}

Trace read_text(std::string_view text) {
  LineCursor in(text, "trace");
  TextHeader header = read_text_header(in, kHeader, false);
  Trace trace = Trace::make(header.ranks, header.mips, std::move(header.app));
  std::vector<Record>* stream = nullptr;
  while (in.next()) {
    const std::string_view op = in.token(0);
    if (op == "rank") {
      const Rank rank = in.integer<Rank>(1, "rank");
      if (rank < 0 || rank >= trace.num_ranks) in.fail("rank out of range");
      stream = &trace.ranks[static_cast<std::size_t>(rank)];
      continue;
    }
    if (stream == nullptr) in.fail("record before any 'rank' directive");
    if (op == "c") {
      stream->push_back(CpuBurst{in.integer<std::uint64_t>(1, "instructions")});
      in.require_size(2);
    } else if (op == "s" || op == "s!" || op == "is" || op == "is!") {
      const bool immediate = op[0] == 'i';
      in.require_size(immediate ? 5 : 4);
      stream->push_back(Send{
          in.integer<Rank>(1, "dest"), in.integer<Tag>(2, "tag"),
          in.integer<std::uint64_t>(3, "bytes"), immediate,
          immediate ? in.integer<ReqId>(4, "request") : kNoRequest,
          op.back() == '!'});
    } else if (op == "r" || op == "ir") {
      const bool immediate = op[0] == 'i';
      in.require_size(immediate ? 5 : 4);
      stream->push_back(Recv{
          in.integer<Rank>(1, "src"), in.integer<Tag>(2, "tag"),
          in.integer<std::uint64_t>(3, "bytes"), immediate,
          immediate ? in.integer<ReqId>(4, "request") : kNoRequest});
    } else if (op == "w") {
      if (in.size() < 2) in.fail("wait needs at least one request id");
      Wait wait;
      for (std::size_t i = 1; i < in.size(); ++i) {
        wait.requests.push_back(in.integer<ReqId>(i, "request"));
      }
      stream->push_back(std::move(wait));
    } else if (op == "g") {
      in.require_size(5);
      const auto kind = collective_from_name(in.token(1));
      if (!kind) {
        in.fail("unknown collective '" + std::string(in.token(1)) + "'");
      }
      stream->push_back(GlobalOp{*kind, in.integer<Rank>(2, "root"),
                                 in.integer<std::uint64_t>(3, "bytes"),
                                 in.integer<std::int64_t>(4, "sequence")});
    } else {
      in.fail("unknown record type '" + std::string(op) + "'");
    }
  }
  return trace;
}

}  // namespace osim::trace
