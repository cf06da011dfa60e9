#include "serve/stats.hpp"

namespace osim::serve {

void write_store_stats_fields(metrics::JsonWriter& writer,
                              store::ScenarioStore& store) {
  const store::StoreStats stats = store.stats();
  writer.key("root").value(store.root());
  writer.key("objects").value(stats.objects);
  writer.key("bytes").value(stats.bytes);
  // Process-local probe counters: this process's tier hit rates.
  writer.key("session_hits").value(store.hits());
  writer.key("session_misses").value(store.misses());
  writer.key("session_rejects").value(store.rejects());
}

std::string cache_stats_json(store::ScenarioStore& store) {
  metrics::JsonWriter writer;
  writer.begin_object();
  writer.key("schema").value("osim.cache_stats");
  writer.key("version").value(std::int64_t{3});
  write_store_stats_fields(writer, store);
  writer.end_object();
  return writer.str();
}

}  // namespace osim::serve
