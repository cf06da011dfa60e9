// osim_cache — maintenance surface for the persistent scenario store
// (src/store): the on-disk, content-addressed cache behind Study's
// --cache-dir disk tier.
//
//   osim_cache stats  --cache-dir DIR            # object/byte totals
//   osim_cache stats  --cache-dir DIR --json     # machine-readable document
//   osim_cache verify --cache-dir DIR            # full integrity scan
//   osim_cache gc     --cache-dir DIR --max-bytes N [--max-objects M]
//
// verify decodes every object (magic, version, CRC, address); it exits 0
// only on a fully intact store, 1 otherwise. gc removes corrupt objects
// unconditionally and then evicts least-recently-used objects (oldest
// mtime first) until the store fits the given budget. Files outside
// objects/ and tmp/ (an older build's index.osim or journals/) are never
// read, written or removed; they may be deleted by hand.
//
// Each command reads only its own flags: any other flag (and --jobs,
// which no command reads) is a usage error naming it, as is a negative
// --max-bytes or --max-objects.
//
// Exit codes follow common/exit_codes.hpp: 0 OK, 1 verification failures,
// 2 bad command line.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/run_options.hpp"
#include "common/strings.hpp"
#include "serve/stats.hpp"
#include "store/store.hpp"

int main(int argc, char** argv) try {
  using namespace osim;

  std::string command;
  std::vector<const char*> rest;
  rest.push_back(argc > 0 ? argv[0] : "osim_cache");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (command.empty() && !arg.starts_with("--")) {
      command = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }

  PerfRecorder perf("osim_cache");
  RunOptions run;
  std::int64_t max_bytes = -1;
  std::int64_t max_objects = 0;
  bool json = false;
  Flags flags(
      "osim_cache <stats|verify|gc>: inspect and maintain a persistent "
      "scenario store");
  run.register_flags(flags, nullptr, "");
  flags.add("json", &json,
            "stats: print the machine-readable osim.cache_stats document "
            "(the same body the analysis service's server-stats embeds)");
  flags.add("max-bytes", &max_bytes,
            "gc: evict LRU objects until the store holds at most this many "
            "bytes (required for gc; 0 empties the store)");
  flags.add("max-objects", &max_objects,
            "gc: additionally keep at most this many objects (0 = no limit)");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;

  if (command.empty()) {
    throw UsageError("missing command: expected stats, verify or gc\n" +
                     flags.usage());
  }
  if (command != "stats" && command != "verify" && command != "gc") {
    throw UsageError("unknown command '" + command +
                     "': expected stats, verify or gc");
  }
  // The one command each flag applies to; --jobs applies to none.
  const std::map<std::string, std::string> flag_command = {
      {"jobs", ""},
      {"json", "stats"},
      {"max-bytes", "gc"},
      {"max-objects", "gc"},
  };
  for (const auto& [name, owner] : flag_command) {
    if (flags.given(name) && owner != command) {
      throw UsageError(strprintf("--%s does not apply to osim_cache %s",
                                 name.c_str(), command.c_str()));
    }
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (flags.given("max-bytes")) {
    require_flag_range("max-bytes", max_bytes, 0, kMax);
  }
  require_flag_range("max-objects", max_objects, 0, kMax);
  if (run.cache_dir.empty()) throw UsageError("no store: pass --cache-dir");
  store::ScenarioStore cache(run.cache_dir);
  const auto finish = [&](int code) {
    perf.write_if(run.perf_json);
    return code;
  };

  if (command == "stats") {
    if (json) {
      std::printf("%s\n", serve::cache_stats_json(cache).c_str());
      return finish(kExitOk);
    }
    const store::StoreStats stats = cache.stats();
    std::printf("store: %s\n", cache.root().c_str());
    std::printf("objects: %llu\n",
                static_cast<unsigned long long>(stats.objects));
    std::printf("bytes: %llu (%s)\n",
                static_cast<unsigned long long>(stats.bytes),
                format_bytes(static_cast<double>(stats.bytes)).c_str());
    return finish(kExitOk);
  }

  if (command == "verify") {
    const store::VerifyReport report = cache.verify();
    std::printf("%s", report.render_text().c_str());
    if (!report.clean()) {
      std::printf("%s: %zu issue(s)\n", cache.root().c_str(),
                  report.issues.size());
      return finish(kExitError);
    }
    std::printf("%s: OK\n", cache.root().c_str());
    return finish(kExitOk);
  }

  if (command == "gc") {
    if (!flags.given("max-bytes")) {
      throw UsageError("gc requires --max-bytes");
    }
    const store::GcReport report =
        cache.gc(static_cast<std::uint64_t>(max_bytes),
                 static_cast<std::uint64_t>(max_objects));
    std::printf("gc: removed %llu object(s), %s; kept %llu object(s), %s\n",
                static_cast<unsigned long long>(report.objects_removed),
                format_bytes(static_cast<double>(report.bytes_removed)).c_str(),
                static_cast<unsigned long long>(report.objects_kept),
                format_bytes(static_cast<double>(report.bytes_kept)).c_str());
    return finish(kExitOk);
  }
  OSIM_UNREACHABLE("osim_cache command not dispatched");
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
