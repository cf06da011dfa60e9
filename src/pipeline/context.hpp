// ReplayContext — the immutable unit of work of the pipeline layer.
//
// A context bundles everything one dimemas::replay call consumes: the trace,
// the platform and the replay options. The trace is checked exactly once, at
// construction, by lint::check_structure (failing early, with record-anchored
// diagnostics, instead of deep inside a bandwidth bisection) — the
// precondition dimemas::replay relies on — and is shared by reference
// between derived contexts, so sweeping a platform parameter across hundreds
// of scenarios copies no records.
//
// A context family — a context and every context derived from it that
// lowers the trace alike (with_platform, with_bandwidth, with_faults,
// with_progress, and with_options when collective_algo is unchanged) —
// also shares one dimemas::ReplayProgram, the trace's collective expansion
// compiled to replay lanes. It is built
// once, by the family's first replay (whichever thread gets there first;
// the others wait for it), so a bandwidth sweep lowers each trace once
// instead of once per bandwidth, and a context that never replays (a
// fingerprint query, a cache hit) never pays for it.
//
// Every context carries a 128-bit content fingerprint over its three
// inputs. Because replay() is a pure, deterministic function of exactly
// these inputs, the fingerprint is a sound cache key: two contexts with
// equal fingerprints replay to bit-identical results (see pipeline::Study).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "dimemas/platform.hpp"
#include "dimemas/replay.hpp"
#include "pipeline/fingerprint.hpp"
#include "trace/trace.hpp"

namespace osim::pipeline {

/// Content fingerprint over a trace alone (the trace lane of a context's
/// combined fingerprint). Used as the cache key for per-trace artifacts
/// that do not depend on a platform — e.g. cached lint reports.
Fingerprint fingerprint_of(const trace::Trace& trace);

/// The combined (trace, platform, options) fingerprint a ReplayContext
/// carries, bit for bit. This is the piece that lets a caller who already
/// knows a trace's fingerprint (the osim_serve controller deduping
/// requests, a store maintenance tool) address scenarios without
/// re-validating or even holding the trace.
Fingerprint combined_fingerprint(const Fingerprint& trace_fingerprint,
                                 const dimemas::Platform& platform,
                                 const dimemas::ReplayOptions& options);

class ReplayContext {
 public:
  /// Checks `trace` up front with lint::check_structure; throws osim::Error
  /// on any error, carrying the rendered diagnostics so the failure names
  /// the offending rank/record instead of surfacing mid-search.
  ReplayContext(trace::Trace trace, dimemas::Platform platform,
                dimemas::ReplayOptions options = {});
  ReplayContext(std::shared_ptr<const trace::Trace> trace,
                dimemas::Platform platform,
                dimemas::ReplayOptions options = {});

  const trace::Trace& trace() const { return *trace_; }
  const std::shared_ptr<const trace::Trace>& trace_ptr() const {
    return trace_;
  }
  const dimemas::Platform& platform() const { return platform_; }
  const dimemas::ReplayOptions& options() const { return options_; }
  const Fingerprint& fingerprint() const { return fingerprint_; }

  /// The family's lowered trace, built on first use (thread-safe) and
  /// shared by every context of the family; the program replay() takes.
  std::shared_ptr<const dimemas::ReplayProgram> program() const;

  /// Derived contexts share the validated trace (and its fingerprint), so
  /// they cost one platform/options rehash — no records are copied or
  /// re-validated.
  ReplayContext with_platform(dimemas::Platform platform) const;
  ReplayContext with_options(dimemas::ReplayOptions options) const;
  ReplayContext with_bandwidth(double mbps) const;
  /// Same scenario under fault injection. The fault model is hashed into
  /// the fingerprint (via its canonical spec) only when enabled, so a
  /// faults-off context keeps its pre-fault fingerprint bit for bit.
  ReplayContext with_faults(faults::FaultModel faults) const;
  /// Same scenario under another MPI progress regime. Like faults, the
  /// model only reaches the fingerprint when enabled, so an offload
  /// context keeps its pre-axis fingerprint bit for bit.
  ReplayContext with_progress(dimemas::ProgressModel progress) const;

 private:
  /// The once-built program of a context family.
  struct ProgramSlot {
    std::mutex mutex;
    std::shared_ptr<const dimemas::ReplayProgram> program;  // null: not yet
  };

  ReplayContext(std::shared_ptr<const trace::Trace> trace,
                Fingerprint trace_fingerprint, dimemas::Platform platform,
                dimemas::ReplayOptions options,
                std::shared_ptr<ProgramSlot> program);

  std::shared_ptr<const trace::Trace> trace_;
  std::shared_ptr<ProgramSlot> program_;
  dimemas::Platform platform_;
  dimemas::ReplayOptions options_;
  Fingerprint trace_fingerprint_;  // over the trace content only
  Fingerprint fingerprint_;        // trace + platform + options
};

}  // namespace osim::pipeline
