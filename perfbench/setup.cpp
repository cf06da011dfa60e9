#include "setup.hpp"

#include <filesystem>

#include "apps/app.hpp"
#include "overlap/transform.hpp"
#include "trace/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<TraceFile> write_traces(int ranks, const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto setup_span = spans().open("setup.traces");
  std::vector<TraceFile> files;
  // One app at a time: mpisim runs one OS thread per rank, and tracing two
  // 1024-rank apps at once is slower than tracing them back to back.
  for (const osim::apps::MiniApp* app : osim::apps::registry()) {
    osim::apps::AppConfig config;
    config.ranks = ranks;
    config.iterations = kIterations;
    osim::tracer::TracedRun traced;
    {
      auto span = spans().open("apps.trace");
      traced = osim::apps::trace_app(*app, config);
    }
    osim::overlap::OverlapOptions overlap_options;
    overlap_options.chunks = kChunks;
    std::vector<osim::trace::Trace> lowered;
    {
      auto span = spans().open("overlap.transform");
      lowered.push_back(osim::overlap::lower_original(traced.annotated));
      lowered.push_back(
          osim::overlap::transform(traced.annotated, overlap_options));
    }
    for (std::size_t v = 0; v < lowered.size(); ++v) {
      TraceFile file{app->name(), kVariants[v],
                     dir + "/" + app->name() + "." + kVariants[v] + ".btrace",
                     ranks, 0};
      {
        auto span = spans().open("trace.write");
        osim::trace::write_binary_file(lowered[v], file.path);
      }
      spans().count("apps.records",
                    static_cast<double>(lowered[v].total_records()));
      file.bytes = std::filesystem::file_size(file.path);
      files.push_back(std::move(file));
    }
  }
  return files;
}

double timed_setup(const RunConfig& config,
                   const std::function<void(const std::string& dir, bool last)>&
                       setup_once,
                   std::string* last_dir) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const bool last = rep + 1 == kSetupRepetitions;
    const std::string dir = config.work_dir + "/setup" + std::to_string(rep);
    spans().enable(config.traced && last);
    const Clock::time_point start = Clock::now();
    {
      auto span = spans().open("setup");
      setup_once(dir, last);
    }
    times.push_back(seconds_since(start));
    if (last) {
      *last_dir = dir;
    } else {
      remove_tree(dir);
    }
  }
  spans().enable(config.traced);
  return median(times);
}

}  // namespace perfbench
