#include "lint/deadlock.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace osim::lint {

namespace {

using trace::Rank;

constexpr const char* kPass = "deadlock";

}  // namespace

void check_deadlock(const trace::Trace& trace, const HbAnalysis& hb,
                    Report& report) {
  if (hb.stuck.empty()) return;
  std::map<Rank, const StuckRank*> entry;
  for (const StuckRank& s : hb.stuck) entry[s.rank] = &s;
  const auto stream = [&](Rank r) -> const std::vector<trace::Record>& {
    return trace.ranks[static_cast<std::size_t>(r)];
  };

  // Blame edges restricted to stuck ranks (a finished rank cannot be part
  // of a cycle).
  std::map<Rank, std::vector<Rank>> edges;
  for (const StuckRank& s : hb.stuck) {
    std::vector<Rank>& out = edges[s.rank];
    for (const Rank t : s.waits_on) {
      if (entry.count(t) > 0) out.push_back(t);
    }
  }

  // Strongly connected components (iterative Tarjan) over stuck ranks.
  std::map<Rank, int> index, lowlink, component;
  std::vector<Rank> scc_stack;
  std::set<Rank> on_stack;
  int next_index = 0, next_component = 0;
  struct Frame {
    Rank rank;
    std::size_t edge = 0;
  };
  for (const StuckRank& s : hb.stuck) {
    const Rank root = s.rank;
    if (index.count(root) > 0) continue;
    std::vector<Frame> call_stack{{root}};
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack.insert(root);
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::vector<Rank>& out = edges[frame.rank];
      if (frame.edge < out.size()) {
        const Rank next = out[frame.edge++];
        if (index.count(next) == 0) {
          index[next] = lowlink[next] = next_index++;
          scc_stack.push_back(next);
          on_stack.insert(next);
          call_stack.push_back(Frame{next});
        } else if (on_stack.count(next) > 0) {
          lowlink[frame.rank] = std::min(lowlink[frame.rank], index[next]);
        }
      } else {
        if (lowlink[frame.rank] == index[frame.rank]) {
          while (true) {
            const Rank popped = scc_stack.back();
            scc_stack.pop_back();
            on_stack.erase(popped);
            component[popped] = next_component;
            if (popped == frame.rank) break;
          }
          ++next_component;
        }
        const Rank done = frame.rank;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          lowlink[call_stack.back().rank] =
              std::min(lowlink[call_stack.back().rank], lowlink[done]);
        }
      }
    }
  }

  std::map<int, std::vector<Rank>> members;
  for (const StuckRank& s : hb.stuck) {
    members[component[s.rank]].push_back(s.rank);
  }

  std::set<Rank> in_cycle;
  for (const auto& [comp, ranks] : members) {
    if (ranks.size() < 2) continue;  // no self-edges, so singletons: acyclic
    for (const Rank r : ranks) in_cycle.insert(r);
    std::vector<std::string> chain;
    for (const Rank r : ranks) {
      const StuckRank& s = *entry.at(r);
      std::vector<std::string> waits;
      for (const Rank t : edges[r]) {
        waits.push_back(strprintf("%d", t));
      }
      chain.push_back(strprintf(
          "rank %d blocked at record %zu [%s] needs %s (waits on rank %s)",
          r, s.record, trace::to_string(stream(r)[s.record]).c_str(),
          s.needs.c_str(), join(waits, ", rank ").c_str()));
    }
    std::vector<std::string> rank_names;
    for (const Rank r : ranks) rank_names.push_back(strprintf("%d", r));
    report.error(kPass, -1, kNoRecord,
                 strprintf("deadlock cycle among ranks %s: %s",
                           join(rank_names, ", ").c_str(),
                           join(chain, "; ").c_str()));
  }

  for (const StuckRank& s : hb.stuck) {
    if (in_cycle.count(s.rank) > 0) continue;
    report.error(
        kPass, s.rank, static_cast<std::ptrdiff_t>(s.record),
        strprintf("rank starves: blocked at [%s] needing %s that no rank "
                  "ever provides",
                  trace::to_string(stream(s.rank)[s.record]).c_str(),
                  s.needs.c_str()));
  }
}

void check_deadlock(const trace::Trace& trace, Report& report,
                    std::uint64_t eager_threshold_bytes) {
  check_deadlock(trace, analyze_happens_before(trace, eager_threshold_bytes),
                 report);
}

}  // namespace osim::lint
