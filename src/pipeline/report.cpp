#include "pipeline/report.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/strings.hpp"
#include "metrics/json.hpp"
#include "pipeline/lint_cache.hpp"

namespace osim::pipeline {

namespace {

using metrics::JsonWriter;

const char* model_name(dimemas::NetworkModelKind model) {
  switch (model) {
    case dimemas::NetworkModelKind::kBus:
      return "bus";
    case dimemas::NetworkModelKind::kFairShare:
      return "fairshare";
  }
  OSIM_UNREACHABLE("bad NetworkModelKind");
}

void write_components(JsonWriter& w, const metrics::WaitComponents& c) {
  w.begin_object();
  w.key("dependency_s").value(c.dependency_s);
  // Present only when fault injection actually delayed something, so
  // fault-free reports stay byte-identical to pre-fault builds.
  if (c.fault_s != 0.0) w.key("fault_s").value(c.fault_s);
  // Same contract for the progress engine: only non-offload replays can
  // accrue progress_s, so offload reports stay byte-identical.
  if (c.progress_s != 0.0) w.key("progress_s").value(c.progress_s);
  w.key("bus_contention_s").value(c.bus_contention_s);
  w.key("port_contention_s").value(c.port_contention_s);
  w.key("wire_s").value(c.wire_s);
  w.key("latency_s").value(c.latency_s);
  w.key("total_s").value(c.total_s());
  w.end_object();
}

void write_occupancy(JsonWriter& w, const metrics::OccupancyStats& stats) {
  w.begin_object();
  w.key("tracked").value(stats.tracked);
  w.key("capacity").value(stats.capacity);
  w.key("peak").value(stats.peak);
  w.key("mean_level").value(stats.mean_level);
  w.key("busy_s").value(stats.busy_s);
  w.key("utilization").value(stats.utilization);
  w.key("histogram_s").begin_array();
  for (const double seconds : stats.histogram) w.value(seconds);
  w.end_array();
  w.end_object();
}

void write_platform(JsonWriter& w, const dimemas::Platform& p) {
  w.begin_object();
  w.key("num_nodes").value(p.num_nodes);
  w.key("model").value(model_name(p.model));
  w.key("relative_cpu_speed").value(p.relative_cpu_speed);
  w.key("bandwidth_MBps").value(p.bandwidth_MBps);
  w.key("latency_us").value(p.latency_us);
  w.key("per_message_overhead_us").value(p.per_message_overhead_us);
  w.key("num_buses").value(p.num_buses);
  w.key("input_ports").value(p.input_ports);
  w.key("output_ports").value(p.output_ports);
  w.key("fabric_capacity_links").value(p.fabric_capacity_links);
  w.key("eager_threshold_bytes").value(p.eager_threshold_bytes);
  w.end_object();
}


void write_fault_counts(JsonWriter& w, const faults::Counts& c) {
  w.begin_object();
  w.key("seed").value(c.seed);
  w.key("messages_dropped").value(c.messages_dropped);
  w.key("retransmits").value(c.retransmits);
  w.key("handshake_reissues").value(c.handshake_reissues);
  w.key("hard_stalls").value(c.hard_stalls);
  w.key("degraded_transfers").value(c.degraded_transfers);
  w.key("perturbed_bursts").value(c.perturbed_bursts);
  w.key("straggled_bursts").value(c.straggled_bursts);
  w.key("injected_delay_s").value(c.injected_delay_s);
  w.key("injected_compute_s").value(c.injected_compute_s);
  w.end_object();
}

}  // namespace

std::string replay_report_json(const dimemas::SimResult& result,
                               const dimemas::Platform& platform,
                               const std::string& app) {
  return replay_report_json(result, platform, app, nullptr);
}

std::string replay_report_json(const dimemas::SimResult& result,
                               const dimemas::Platform& platform,
                               const std::string& app,
                               const lint::Report* lint_report) {
  const metrics::ReplayMetrics* m = result.metrics.get();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("osim.replay_report");
  w.key("version").value(static_cast<std::int64_t>(kReportVersion));
  w.key("app").value(app);
  w.key("platform");
  write_platform(w, platform);

  w.key("summary").begin_object();
  w.key("makespan_s").value(result.makespan);
  w.key("efficiency").value(result.efficiency());
  w.key("total_compute_s").value(result.total_compute_s());
  w.key("total_blocked_s").value(result.total_blocked_s());
  w.key("des_events").value(result.des_events);
  w.end_object();

  w.key("ranks").begin_array();
  for (std::size_t r = 0; r < result.rank_stats.size(); ++r) {
    const dimemas::RankStats& stats = result.rank_stats[r];
    w.begin_object();
    w.key("rank").value(static_cast<std::int64_t>(r));
    w.key("compute_s").value(stats.compute_s);
    w.key("send_blocked_s").value(stats.send_blocked_s);
    w.key("recv_blocked_s").value(stats.recv_blocked_s);
    w.key("wait_blocked_s").value(stats.wait_blocked_s);
    w.key("blocked_s").value(stats.blocked_s());
    w.key("finish_time_s").value(stats.finish_time);
    w.key("messages_sent").value(stats.messages_sent);
    w.key("messages_received").value(stats.messages_received);
    w.key("bytes_sent").value(stats.bytes_sent);
    w.key("bytes_received").value(stats.bytes_received);
    if (m != nullptr && r < m->rank_waits.size()) {
      const metrics::RankWaitAttribution& attr = m->rank_waits[r];
      w.key("wait_attribution").begin_object();
      w.key("send");
      write_components(w, attr.send);
      w.key("recv");
      write_components(w, attr.recv);
      w.key("wait");
      write_components(w, attr.wait);
      w.key("total");
      write_components(w, attr.total());
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  if (m != nullptr) {
    w.key("peer_waits").begin_array();
    for (const metrics::PeerWait& pw : m->peer_waits) {
      w.begin_object();
      w.key("rank").value(pw.rank);
      w.key("peer").value(pw.peer);
      w.key("blocks").value(pw.blocks);
      w.key("components");
      write_components(w, pw.components);
      w.end_object();
    }
    w.end_array();

    w.key("occupancy").begin_object();
    w.key("bus");
    write_occupancy(w, m->bus);
    w.key("nodes").begin_array();
    const std::size_t nodes = m->node_in.size();
    for (std::size_t n = 0; n < nodes; ++n) {
      w.begin_object();
      w.key("node").value(static_cast<std::int64_t>(n));
      w.key("in");
      write_occupancy(w, m->node_in[n]);
      w.key("out");
      write_occupancy(w, m->node_out[n]);
      w.end_object();
    }
    w.end_array();
    w.end_object();

    w.key("protocol").begin_object();
    w.key("eager_messages").value(m->protocol.eager_messages);
    w.key("rendezvous_messages").value(m->protocol.rendezvous_messages);
    w.key("eager_bytes").value(m->protocol.eager_bytes);
    w.key("rendezvous_bytes").value(m->protocol.rendezvous_bytes);
    w.end_object();
  }

  // Emitted only for fault-injected runs: fault-free reports stay
  // byte-identical to pre-fault builds.
  if (result.fault_counts.enabled) {
    w.key("faults");
    write_fault_counts(w, result.fault_counts);
  }

  if (lint_report != nullptr) {
    w.key("lint");
    lint_report->write_json(w);
  }

  w.end_object();
  return w.str();
}

std::string run_report_json(const ReplayContext& context,
                            const dimemas::SimResult& result,
                            store::ScenarioStore* store, int lint_jobs) {
  lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes =
      context.platform().eager_threshold_bytes;
  lint_options.jobs = lint_jobs;
  const lint::Report lint_report =
      lint_with_cache(context.trace(), lint_options, store);
  const std::string& app = context.trace().app;
  return replay_report_json(result, context.platform(),
                            app.empty() ? "app" : app, &lint_report);
}

namespace {

/// Study records sorted by (label, fingerprint): records accumulate in
/// completion order, which depends on thread scheduling, and the sort is
/// what makes every report deterministic across --jobs values.
std::vector<ScenarioRecord> sorted_scenarios(const Study& study) {
  std::vector<ScenarioRecord> records = study.scenarios();
  std::sort(records.begin(), records.end(),
            [](const ScenarioRecord& a, const ScenarioRecord& b) {
              if (a.label != b.label) return a.label < b.label;
              return std::make_pair(a.fingerprint.hi, a.fingerprint.lo) <
                     std::make_pair(b.fingerprint.hi, b.fingerprint.lo);
            });
  return records;
}

}  // namespace

std::string study_report_json(const Study& study) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("osim.study_report");
  w.key("version").value(static_cast<std::int64_t>(kReportVersion));
  // Supervision fields are emitted only for supervised studies, so the
  // default path stays byte-identical (perf_identity_test pins it).
  if (study.supervised()) {
    w.key("status").value(study.interrupted() ? "interrupted" : "complete");
  }
  w.key("jobs").value(static_cast<std::int64_t>(study.jobs()));
  w.key("cache").begin_object();
  w.key("hits").value(static_cast<std::uint64_t>(study.cache_hits()));
  w.key("disk_hits").value(static_cast<std::uint64_t>(study.disk_hits()));
  w.key("misses").value(static_cast<std::uint64_t>(study.cache_misses()));
  w.key("size").value(static_cast<std::uint64_t>(study.cache_size()));
  w.end_object();
  w.key("scenarios").begin_array();
  for (const ScenarioRecord& record : sorted_scenarios(study)) {
    w.begin_object();
    w.key("label").value(record.label);
    w.key("fingerprint").value(to_hex(record.fingerprint));
    w.key("makespan_s").value(record.makespan);
    w.key("wall_s").fixed(record.wall_s, 6);
    w.key("cache_hit").value(record.cache_hit);
    w.key("tier").value(cache_tier_name(record.cache_tier));
    if (study.supervised()) {
      w.key("status").value(scenario_status_name(record.status));
      if (record.partial_blocked_s != 0.0) {
        w.key("partial_blocked_s").value(record.partial_blocked_s);
      }
    }
    if (record.fault_counts.enabled) {
      w.key("faults");
      write_fault_counts(w, record.fault_counts);
      w.key("fault_wait_s").value(record.fault_wait_s);
    }
    if (record.progress_wait_s != 0.0) {
      w.key("progress_wait_s").value(record.progress_wait_s);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string study_report_canonical_json(const Study& study) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("osim.study_report.canonical");
  w.key("version").value(static_cast<std::int64_t>(kReportVersion));
  w.key("status").value(study.interrupted() ? "interrupted" : "complete");
  w.key("scenarios").begin_array();
  for (const ScenarioRecord& record : sorted_scenarios(study)) {
    w.begin_object();
    w.key("label").value(record.label);
    w.key("fingerprint").value(to_hex(record.fingerprint));
    w.key("makespan_s").value(record.makespan);
    w.key("status").value(scenario_status_name(record.status));
    if (record.fault_counts.enabled) {
      w.key("faults");
      write_fault_counts(w, record.fault_counts);
      w.key("fault_wait_s").value(record.fault_wait_s);
    }
    if (record.progress_wait_s != 0.0) {
      w.key("progress_wait_s").value(record.progress_wait_s);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_report(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open report file: " + path);
  out << json << '\n';
  out.flush();
  if (!out) throw Error("failed writing report file: " + path);
}

}  // namespace osim::pipeline
