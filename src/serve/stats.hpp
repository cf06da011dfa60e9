// Machine-readable store statistics, shared by `osim_cache stats --json`
// and the analysis service's server-stats RPC — one emitter, so the two
// surfaces cannot drift (the server-stats "store" block IS the osim_cache
// document body).
#pragma once

#include <string>

#include "metrics/json.hpp"
#include "store/store.hpp"

namespace osim::serve {

/// Writes the store-statistics object body — totals and process-local
/// probe counters — into an already-open JSON object scope on `writer`
/// (no begin/end_object, so callers embed it in their own documents).
void write_store_stats_fields(metrics::JsonWriter& writer,
                              store::ScenarioStore& store);

/// The standalone document `osim_cache stats --json` prints: schema
/// "osim.cache_stats" version 3 wrapping the shared fields.
std::string cache_stats_json(store::ScenarioStore& store);

}  // namespace osim::serve
