#include "serve/job.hpp"

#include <filesystem>

#include "common/crash_point.hpp"
#include "common/expect.hpp"
#include "common/strings.hpp"
#include "dimemas/platform_io.hpp"
#include "dimemas/progress.hpp"
#include "faults/spec.hpp"
#include "lint/diagnostics.hpp"
#include "pipeline/context.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "trace/binary_io.hpp"

namespace osim::serve {

std::vector<std::string> ScenarioSpec::register_flags(Flags& flags) {
  flags.add("bandwidth", &bandwidth, "link bandwidth in MB/s");
  flags.add("latency", &latency, "per-message latency in us");
  flags.add("buses", &buses, "global buses (0 = unlimited)");
  flags.add("ports", &ports, "input/output ports per node");
  flags.add("eager", &eager, "eager protocol threshold in bytes");
  flags.add("collectives", &collectives,
            "collective algorithm: binomial-tree | linear | "
            "recursive-doubling");
  flags.add("faults", &fault_spec,
            "fault-injection spec, e.g. 'seed=7;loss=0.02;degrade=0-1,"
            "bw=0.5' (see faults/spec.hpp for the grammar)");
  flags.add("progress", &progress_spec,
            "MPI progress model: 'offload' (default), 'app', or "
            "'thread[,tax=F]' (see dimemas/progress.hpp for the grammar)");
  return {"bandwidth", "latency",     "buses",  "ports",
          "eager",     "collectives", "faults", "progress"};
}

void encode_spec(bytes::Writer& out, const ScenarioSpec& spec) {
  out.string32(spec.trace_path);
  out.f64(spec.bandwidth);
  out.f64(spec.latency);
  out.i64(spec.buses);
  out.i64(spec.ports);
  out.i64(spec.eager);
  out.string32(spec.collectives);
  out.string32(spec.fault_spec);
  out.string32(spec.progress_spec);
}

ScenarioSpec decode_spec(bytes::Reader& reader) {
  ScenarioSpec spec;
  spec.trace_path = reader.string32();
  spec.bandwidth = reader.f64();
  spec.latency = reader.f64();
  spec.buses = reader.i64();
  spec.ports = reader.i64();
  spec.eager = reader.i64();
  spec.collectives = reader.string32();
  spec.fault_spec = reader.string32();
  spec.progress_spec = reader.string32();
  return spec;
}

dimemas::Platform platform_for(const ScenarioSpec& spec,
                               std::int32_t num_ranks) {
  return dimemas::Platform::from_flags(num_ranks, spec.bandwidth,
                                       spec.latency, spec.buses, spec.ports,
                                       spec.eager);
}

dimemas::Platform platform_for(const ScenarioSpec& spec,
                               std::int32_t num_ranks,
                               const std::string& platform_path) {
  if (platform_path.empty()) return platform_for(spec, num_ranks);
  dimemas::Platform platform = dimemas::read_platform_file(platform_path);
  if (platform.num_nodes < num_ranks) {
    throw Error(strprintf("platform has %d nodes but the trace needs %d",
                          platform.num_nodes, num_ranks));
  }
  return platform;
}

void reject_network_flags_with_platform(const Flags& flags,
                                        const std::string& platform_path) {
  if (platform_path.empty()) return;
  for (const char* name : {"bandwidth", "latency", "buses", "ports", "eager"}) {
    if (flags.given(name)) {
      throw UsageError(strprintf(
          "--%s cannot be combined with --platform: the platform file sets "
          "the network",
          name));
    }
  }
}

dimemas::ReplayOptions options_for(const ScenarioSpec& spec) {
  dimemas::ReplayOptions options;
  options.collect_metrics = true;  // the service always builds the report
  if (spec.collectives == "binomial-tree") {
    options.collective_algo = dimemas::CollectiveAlgo::kBinomialTree;
  } else if (spec.collectives == "linear") {
    options.collective_algo = dimemas::CollectiveAlgo::kLinear;
  } else if (spec.collectives == "recursive-doubling") {
    options.collective_algo = dimemas::CollectiveAlgo::kRecursiveDoubling;
  } else {
    throw UsageError("unknown collective algorithm: " + spec.collectives);
  }
  if (!spec.fault_spec.empty()) {
    options.faults = faults::parse_spec(spec.fault_spec);
  }
  if (!spec.progress_spec.empty()) {
    options.progress = dimemas::parse_progress_spec(spec.progress_spec);
  }
  return options;
}

TraceInfo probe_trace(const std::string& path) {
  const trace::Trace t = trace::read_any_file(path);
  TraceInfo info;
  info.fingerprint = pipeline::fingerprint_of(t);
  info.num_ranks = t.num_ranks;
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  info.file_bytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
  return info;
}

pipeline::Fingerprint spec_fingerprint(const ScenarioSpec& spec,
                                       const TraceInfo& trace) {
  const pipeline::Fingerprint scenario = pipeline::combined_fingerprint(
      trace.fingerprint, platform_for(spec, trace.num_ranks),
      options_for(spec));
  pipeline::FingerprintHasher h;
  h.u64(0x5245504F5254);  // domain tag "REPORT"
  h.u64(scenario.lo);
  h.u64(scenario.hi);
  h.u64(static_cast<std::uint64_t>(pipeline::kReportVersion));
  h.u64(static_cast<std::uint64_t>(lint::kLintReportVersion));
  h.u64(pipeline::kLintAnalysisVersion);
  return h.value();
}

JobOutcome run_job_on_trace(const ScenarioSpec& spec,
                            const std::shared_ptr<const trace::Trace>& trace,
                            store::ScenarioStore* store) {
  JobOutcome outcome;
  try {
    maybe_crash("serve.worker.job");
    const pipeline::ReplayContext context(
        trace, platform_for(spec, trace->num_ranks), options_for(spec));
    outcome.report_json = pipeline::run_report_json(
        context, pipeline::run_scenario(context), store);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

JobOutcome run_job(const ScenarioSpec& spec, store::ScenarioStore* store) {
  try {
    auto trace = std::make_shared<const trace::Trace>(
        trace::read_any_file(spec.trace_path));
    return run_job_on_trace(spec, trace, store);
  } catch (const std::exception& e) {
    JobOutcome outcome;
    outcome.error = e.what();
    return outcome;
  }
}

std::string encode_job_request(const JobRequest& request) {
  std::string out;
  bytes::Writer w(out);
  pipeline::write_fingerprint(w, request.ticket);
  encode_spec(w, request.spec);
  return out;
}

std::optional<JobRequest> decode_job_request(std::string_view payload) {
  bytes::Reader reader(payload);
  JobRequest request;
  request.ticket = pipeline::read_fingerprint(reader);
  request.spec = decode_spec(reader);
  if (!reader.done()) return std::nullopt;
  return request;
}

std::string encode_job_result(const JobResult& result) {
  std::string out;
  bytes::Writer w(out);
  pipeline::write_fingerprint(w, result.ticket);
  w.boolean(result.ok);
  w.string32(result.report_json);
  w.string32(result.error);
  return out;
}

std::optional<JobResult> decode_job_result(std::string_view payload) {
  bytes::Reader reader(payload);
  JobResult result;
  result.ticket = pipeline::read_fingerprint(reader);
  result.ok = reader.boolean();
  result.report_json = reader.string32();
  result.error = reader.string32();
  if (!reader.done()) return std::nullopt;
  return result;
}

}  // namespace osim::serve
