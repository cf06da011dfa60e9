#include "serve/stats.hpp"

#include "pipeline/fingerprint.hpp"

namespace osim::serve {

void write_store_stats_fields(
    metrics::JsonWriter& writer, store::ScenarioStore& store,
    const std::vector<supervise::JournalInfo>& journals) {
  const store::StoreStats stats = store.stats();
  writer.key("root").value(store.root());
  writer.key("objects").value(stats.objects);
  writer.key("bytes").value(stats.bytes);
  // Process-local probe counters: this process's tier hit rates.
  writer.key("session_hits").value(store.hits());
  writer.key("session_misses").value(store.misses());
  writer.key("session_rejects").value(store.rejects());

  std::size_t complete = 0;
  std::size_t invalid = 0;
  for (const supervise::JournalInfo& j : journals) {
    if (!j.valid) {
      ++invalid;
    } else if (j.complete) {
      ++complete;
    }
  }
  writer.key("journals").begin_object();
  writer.key("total").value(static_cast<std::uint64_t>(journals.size()));
  writer.key("complete").value(static_cast<std::uint64_t>(complete));
  writer.key("in_progress")
      .value(static_cast<std::uint64_t>(journals.size() - complete - invalid));
  writer.key("unreadable").value(static_cast<std::uint64_t>(invalid));
  writer.key("studies").begin_array();
  for (const supervise::JournalInfo& j : journals) {
    writer.begin_object();
    writer.key("study").value(j.valid ? pipeline::to_hex(j.study) : "");
    writer.key("path").value(j.path);
    writer.key("entries").value(static_cast<std::uint64_t>(j.entries));
    writer.key("ok").value(static_cast<std::uint64_t>(j.ok));
    writer.key("bytes").value(j.bytes);
    writer.key("state").value(!j.valid      ? "unreadable"
                              : j.complete  ? "complete"
                                            : "in-progress");
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
}

std::string cache_stats_json(
    store::ScenarioStore& store,
    const std::vector<supervise::JournalInfo>& journals) {
  metrics::JsonWriter writer;
  writer.begin_object();
  writer.key("schema").value("osim.cache_stats");
  writer.key("version").value(std::int64_t{2});
  write_store_stats_fields(writer, store, journals);
  writer.end_object();
  return writer.str();
}

}  // namespace osim::serve
