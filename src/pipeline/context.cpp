#include "pipeline/context.hpp"

#include <utility>

#include "common/expect.hpp"
#include "faults/spec.hpp"
#include "lint/lint.hpp"

namespace osim::pipeline {

namespace {

void hash_record(FingerprintHasher& h, const trace::Record& record) {
  h.u64(record.index());  // discriminate the alternatives
  std::visit(
      [&h](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, trace::CpuBurst>) {
          h.u64(r.instructions);
        } else if constexpr (std::is_same_v<T, trace::Send>) {
          h.i64(r.dest);
          h.i64(r.tag);
          h.u64(r.bytes);
          h.boolean(r.immediate);
          h.i64(r.request);
          h.boolean(r.synchronous);
        } else if constexpr (std::is_same_v<T, trace::Recv>) {
          h.i64(r.src);
          h.i64(r.tag);
          h.u64(r.bytes);
          h.boolean(r.immediate);
          h.i64(r.request);
        } else if constexpr (std::is_same_v<T, trace::Wait>) {
          h.u64(r.requests.size());
          for (const trace::ReqId id : r.requests) h.i64(id);
        } else if constexpr (std::is_same_v<T, trace::GlobalOp>) {
          h.u64(static_cast<std::uint64_t>(r.kind));
          h.i64(r.root);
          h.u64(r.bytes);
          h.i64(r.sequence);
        }
      },
      record);
}

Fingerprint trace_fingerprint(const trace::Trace& t) {
  FingerprintHasher h;
  h.i64(t.num_ranks);
  h.f64(t.mips);
  h.str(t.app);
  for (const auto& stream : t.ranks) {
    h.u64(stream.size());
    for (const trace::Record& record : stream) hash_record(h, record);
  }
  return h.value();
}

void hash_platform(FingerprintHasher& h, const dimemas::Platform& p) {
  h.i64(p.num_nodes);
  h.f64(p.relative_cpu_speed);
  h.u64(p.per_node_cpu_speed.size());
  for (const double s : p.per_node_cpu_speed) h.f64(s);
  h.u64(static_cast<std::uint64_t>(p.model));
  h.f64(p.bandwidth_MBps);
  h.f64(p.latency_us);
  h.f64(p.per_message_overhead_us);
  h.i64(p.num_buses);
  h.i64(p.input_ports);
  h.i64(p.output_ports);
  h.f64(p.fabric_capacity_links);
  h.u64(p.eager_threshold_bytes);
}

void hash_options(FingerprintHasher& h, const dimemas::ReplayOptions& o) {
  h.boolean(o.record_timeline);
  h.boolean(o.record_comms);
  h.boolean(o.collect_metrics);
  h.boolean(o.auto_expand_collectives);
  h.u64(static_cast<std::uint64_t>(o.collective_algo));
  h.f64(o.max_sim_time_s);
  // Hashed only when enabled so faults-off fingerprints stay bit-identical
  // to pre-fault builds. The canonical spec covers every model field.
  if (o.faults.enabled()) h.str(faults::to_spec(o.faults));
  // Same inert-when-off rule for the progress axis: the offload default
  // contributes nothing to the byte stream.
  if (o.progress.enabled()) h.str(dimemas::to_spec(o.progress));
}

std::shared_ptr<const trace::Trace> validated(
    std::shared_ptr<const trace::Trace> trace) {
  OSIM_CHECK(trace != nullptr);
  const lint::Report report = lint::check_structure(*trace);
  if (report.num_errors() > 0) {
    throw Error("ReplayContext: trace failed validation:\n" +
                report.render_text());
  }
  return trace;
}

}  // namespace

Fingerprint fingerprint_of(const trace::Trace& trace) {
  return trace_fingerprint(trace);
}

Fingerprint combined_fingerprint(const Fingerprint& trace_fingerprint,
                                 const dimemas::Platform& platform,
                                 const dimemas::ReplayOptions& options) {
  FingerprintHasher h;
  h.u64(trace_fingerprint.lo);
  h.u64(trace_fingerprint.hi);
  hash_platform(h, platform);
  hash_options(h, options);
  return h.value();
}

ReplayContext::ReplayContext(trace::Trace trace, dimemas::Platform platform,
                             dimemas::ReplayOptions options)
    : ReplayContext(std::make_shared<const trace::Trace>(std::move(trace)),
                    std::move(platform), options) {}

ReplayContext::ReplayContext(std::shared_ptr<const trace::Trace> trace,
                             dimemas::Platform platform,
                             dimemas::ReplayOptions options)
    : trace_(validated(std::move(trace))),
      program_(std::make_shared<ProgramSlot>()),
      platform_(std::move(platform)),
      options_(options),
      trace_fingerprint_(trace_fingerprint(*trace_)),
      fingerprint_(
          combined_fingerprint(trace_fingerprint_, platform_, options_)) {}

ReplayContext::ReplayContext(std::shared_ptr<const trace::Trace> trace,
                             Fingerprint trace_fingerprint,
                             dimemas::Platform platform,
                             dimemas::ReplayOptions options,
                             std::shared_ptr<ProgramSlot> program)
    : trace_(std::move(trace)),
      program_(std::move(program)),
      platform_(std::move(platform)),
      options_(options),
      trace_fingerprint_(trace_fingerprint),
      fingerprint_(
          combined_fingerprint(trace_fingerprint_, platform_, options_)) {}

std::shared_ptr<const dimemas::ReplayProgram> ReplayContext::program() const {
  // Held while lowering, so racing first replays lower once between them.
  std::lock_guard<std::mutex> lock(program_->mutex);
  if (program_->program == nullptr) {
    program_->program = std::make_shared<const dimemas::ReplayProgram>(
        dimemas::lower(*trace_, options_));
  }
  return program_->program;
}

ReplayContext ReplayContext::with_platform(dimemas::Platform platform) const {
  return ReplayContext(trace_, trace_fingerprint_, std::move(platform),
                       options_, program_);
}

ReplayContext ReplayContext::with_options(dimemas::ReplayOptions options) const {
  std::shared_ptr<ProgramSlot> program =
      dimemas::same_lowering(options_, options)
          ? program_
          : std::make_shared<ProgramSlot>();
  return ReplayContext(trace_, trace_fingerprint_, platform_, options,
                       std::move(program));
}

ReplayContext ReplayContext::with_bandwidth(double mbps) const {
  OSIM_CHECK(mbps > 0.0);
  dimemas::Platform platform = platform_;
  platform.bandwidth_MBps = mbps;
  return with_platform(std::move(platform));
}

ReplayContext ReplayContext::with_faults(faults::FaultModel faults) const {
  dimemas::ReplayOptions options = options_;
  options.faults = std::move(faults);
  return with_options(std::move(options));
}

ReplayContext ReplayContext::with_progress(dimemas::ProgressModel progress) const {
  dimemas::ReplayOptions options = options_;
  options.progress = progress;
  return with_options(std::move(options));
}

}  // namespace osim::pipeline
