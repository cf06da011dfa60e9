#include "trace/annotated_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "common/line_cursor.hpp"
#include "trace/io.hpp"
#include "trace/mmap_file.hpp"

namespace osim::trace {

namespace {

constexpr const char* kHeader = "#OSIM-ANNTRACE v1";

void write_times(std::ostream& out,
                 const std::vector<std::uint64_t>& times) {
  for (const std::uint64_t t : times) {
    if (t == kNeverAccessed) {
      out << " -";
    } else {
      out << ' ' << t;
    }
  }
}

}  // namespace

void write_annotated(const AnnotatedTrace& trace, std::ostream& out) {
  out << kHeader << "\n";
  out << "meta app " << (trace.app.empty() ? "-" : trace.app) << "\n";
  out << "meta ranks " << trace.num_ranks << "\n";
  out << "meta mips " << strprintf("%.17g", trace.mips) << "\n";
  for (Rank rank = 0; rank < trace.num_ranks; ++rank) {
    const AnnotatedRank& arank = trace.ranks[static_cast<std::size_t>(rank)];
    out << "rank " << rank << " final " << arank.final_vclock << "\n";
    for (const AnnEvent& ev : arank.events) {
      switch (ev.kind) {
        case AnnEvent::Kind::kSend:
        case AnnEvent::Kind::kIsend:
          if (ev.kind == AnnEvent::Kind::kIsend) {
            out << "is " << ev.vclock << ' ' << ev.request;
          } else {
            out << "s " << ev.vclock;
          }
          out << ' ' << ev.peer << ' ' << ev.tag << ' ' << ev.elem_bytes
              << ' ' << ev.bytes / ev.elem_bytes << ' ' << ev.buffer_id
              << ' ' << (ev.chunkable ? 1 : 0) << ' ' << ev.interval_start;
          write_times(out, ev.elem_last_store);
          out << "\n";
          break;
        case AnnEvent::Kind::kRecv:
        case AnnEvent::Kind::kIrecv:
          if (ev.kind == AnnEvent::Kind::kIrecv) {
            out << "ir " << ev.vclock << ' ' << ev.request;
          } else {
            out << "r " << ev.vclock;
          }
          out << ' ' << ev.peer << ' ' << ev.tag << ' ' << ev.elem_bytes
              << ' ' << ev.bytes / ev.elem_bytes << ' ' << ev.buffer_id
              << ' ' << (ev.chunkable ? 1 : 0) << ' ' << ev.interval_end
              << ' ' << ev.wait_event_index;
          write_times(out, ev.elem_first_load);
          out << "\n";
          break;
        case AnnEvent::Kind::kWait:
          out << "w " << ev.vclock;
          for (const ReqId req : ev.wait_requests) out << ' ' << req;
          out << "\n";
          break;
        case AnnEvent::Kind::kGlobalOp:
          out << "g " << ev.vclock << ' ' << collective_name(ev.coll) << ' '
              << ev.root << ' ' << ev.bytes << ' ' << ev.coll_sequence
              << "\n";
          break;
      }
    }
  }
}

std::string write_annotated(const AnnotatedTrace& trace) {
  std::ostringstream os;
  write_annotated(trace, os);
  return os.str();
}

void write_annotated_file(const AnnotatedTrace& trace,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open annotated trace file: " + path);
  write_annotated(trace, out);
  if (!out) throw Error("error writing annotated trace file: " + path);
}

namespace {

/// The per-element trailer of a transfer from token `i` on: none
/// (untracked buffer) or exactly `nelems` clocks, '-' for never.
void read_times(const LineCursor& in, std::size_t i, std::uint64_t nelems,
                std::vector<std::uint64_t>* out) {
  if (i >= in.size()) return;
  if (in.size() - i != nelems) {
    in.fail(strprintf("expected %llu per-element times, got %zu",
                      static_cast<unsigned long long>(nelems),
                      in.size() - i));
  }
  out->reserve(nelems);
  for (; i < in.size(); ++i) {
    out->push_back(in.token(i) == "-" ? kNeverAccessed
                                      : in.integer<std::uint64_t>(i, "time"));
  }
}

}  // namespace

AnnotatedTrace read_annotated(std::string_view text) {
  LineCursor in(text, "annotated trace");
  TextHeader header = read_text_header(in, kHeader, true);
  AnnotatedTrace trace =
      AnnotatedTrace::make(header.ranks, header.mips, std::move(header.app));
  std::vector<AnnEvent>* events = nullptr;
  while (in.next()) {
    const std::string_view op = in.token(0);
    if (op == "rank") {
      in.require_min(4);
      if (in.token(2) != "final") in.fail("expected 'rank N final CLOCK'");
      const Rank rank = in.integer<Rank>(1, "rank");
      if (rank < 0 || rank >= trace.num_ranks) in.fail("rank out of range");
      AnnotatedRank& arank = trace.ranks[static_cast<std::size_t>(rank)];
      arank.final_vclock = in.integer<std::uint64_t>(3, "final");
      events = &arank.events;
      continue;
    }
    if (events == nullptr) in.fail("event before any 'rank' directive");
    const bool transfer = op == "s" || op == "is" || op == "r" || op == "ir";
    if (!transfer && op != "w" && op != "g") {
      in.fail("unknown event type '" + std::string(op) + "'");
    }

    AnnEvent ev;
    std::size_t i = 1;
    ev.vclock = in.integer<std::uint64_t>(i++, "vclock");
    if (transfer) {
      const bool send = op.back() == 's';
      const bool immediate = op[0] == 'i';
      ev.kind = send ? (immediate ? AnnEvent::Kind::kIsend
                                  : AnnEvent::Kind::kSend)
                     : (immediate ? AnnEvent::Kind::kIrecv
                                  : AnnEvent::Kind::kRecv);
      if (immediate) ev.request = in.integer<ReqId>(i++, "request");
      ev.peer = in.integer<Rank>(i++, "peer");
      ev.tag = in.integer<Tag>(i++, "tag");
      ev.elem_bytes = in.integer<std::uint32_t>(i++, "elem_bytes");
      const std::uint64_t nelems = in.integer<std::uint64_t>(i++, "nelems");
      if (ev.elem_bytes != 0 && nelems > UINT64_MAX / ev.elem_bytes) {
        in.fail("nelems * elem_bytes overflows 64 bits");
      }
      ev.bytes = nelems * ev.elem_bytes;
      ev.buffer_id = in.integer<std::int64_t>(i++, "buffer");
      ev.chunkable = in.integer<std::uint64_t>(i++, "chunkable") != 0;
      if (send) {
        ev.interval_start = in.integer<std::uint64_t>(i++, "interval_start");
        read_times(in, i, nelems, &ev.elem_last_store);
      } else {
        ev.interval_end = in.integer<std::uint64_t>(i++, "interval_end");
        ev.wait_event_index = in.integer<std::int64_t>(i++, "wait_event");
        read_times(in, i, nelems, &ev.elem_first_load);
      }
    } else if (op == "w") {
      ev.kind = AnnEvent::Kind::kWait;
      for (; i < in.size(); ++i) {
        ev.wait_requests.push_back(in.integer<ReqId>(i, "request"));
      }
      if (ev.wait_requests.empty()) in.fail("wait with no requests");
    } else {
      ev.kind = AnnEvent::Kind::kGlobalOp;
      const auto kind = collective_from_name(in.token(i++));
      if (!kind) in.fail("unknown collective");
      ev.coll = *kind;
      ev.root = in.integer<Rank>(i++, "root");
      ev.bytes = in.integer<std::uint64_t>(i++, "bytes");
      ev.coll_sequence = in.integer<std::int64_t>(i++, "sequence");
    }
    events->push_back(std::move(ev));
  }
  validate(trace);
  return trace;
}

AnnotatedTrace read_annotated_file(const std::string& path) {
  return read_annotated(MappedFile::open(path).view());
}

}  // namespace osim::trace
