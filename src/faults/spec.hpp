// Textual fault-model spec — the `osim_replay --faults <spec>` grammar.
//
// A spec is a ';'-separated list of clauses; each clause is a ','-separated
// list of key=value pairs whose first key names the mechanism:
//
//   seed=<u64>                              injector seed (default 1)
//   loss=<p>[,timeout=<t>][,backoff=<f>][,retries=<n>]
//   noise=<magnitude>[,prob=<p>]
//   degrade=<src>-<dst>[,from=<t>][,until=<t>][,bw=<f>][,lat=<t>]
//   straggler=<rank>[,from=<t>][,until=<t>][,cpu=<f>]
//
// <t> is a finite duration with an optional unit suffix: s, ms or us
// (default s); `until` may also be `inf` (an open-ended window, the default).
// <src>/<dst>/<rank> are rank numbers or the keyword `any` (kept a word, not
// `*`, so specs survive unquoted shell use). `degrade` and `straggler` may
// repeat; windows that overlap compose multiplicatively. Example:
//
//   seed=7;loss=0.02,timeout=50us;degrade=any-any,until=0.5s,bw=0.25
//
// to_spec() renders the canonical form: parse_spec(to_spec(m)) == m, and the
// canonical string is what the ReplayContext fingerprint hashes, so two ways
// of writing the same model share a cache entry.
#pragma once

#include <string>

#include "faults/model.hpp"

namespace osim::faults {

/// Parses the grammar above. Throws osim::Error naming the offending clause
/// on malformed input.
FaultModel parse_spec(const std::string& spec);

/// Canonical textual form (stable across writes; empty for an inert model).
std::string to_spec(const FaultModel& model);

}  // namespace osim::faults
