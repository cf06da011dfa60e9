// Expansion of GlobalOp records into point-to-point transfers.
//
// The paper: "collective communication operations are performed in Dimemas
// without assuming any collective hardware support on the network, so they
// are implemented as usual using multiple point-to-point MPI transfers."
//
// Algorithms (all deterministic):
//   barrier    — binomial fan-in to rank 0 with 0-byte messages, then
//                binomial fan-out
//   bcast      — binomial tree from the root
//   reduce     — binomial fan-in to the root (every edge carries the full
//                payload; reduction combines in place)
//   allreduce  — reduce to rank 0, then bcast from rank 0
//   gather     — binomial fan-in; each edge carries the sender's whole
//                subtree worth of payload
//   scatter    — binomial fan-out; each edge carries the receiver's whole
//                subtree worth of payload
//   allgather  — gather to rank 0, then bcast of the concatenated payload
//   alltoall   — P-1 pairwise exchange rounds (irecv + send + wait), round
//                i pairing rank with (rank±i) mod P
//
// Internal messages use negative tags derived from the op's sequence number
// so they can never collide with application traffic (tags >= 0) or with
// chunk tags generated by the overlap transformation.
#pragma once

#include "trace/trace.hpp"

namespace osim::dimemas {

/// Decomposition algorithm family. The default binomial trees are what
/// production MPI libraries use for medium payloads; the alternatives are
/// provided for model studies (bench/ablation_collectives):
///   kLinear            — flat root-centric stars: the root exchanges one
///                        message per peer (the textbook naive algorithm).
///   kRecursiveDoubling — log-round algorithms where applicable:
///                        dissemination barrier, recursive-doubling
///                        allreduce/allgather for power-of-two rank counts;
///                        rooted operations fall back to binomial trees.
enum class CollectiveAlgo : std::uint8_t {
  kBinomialTree,
  kLinear,
  kRecursiveDoubling,
};

const char* collective_algo_name(CollectiveAlgo algo);

/// True if any rank stream contains a GlobalOp record.
bool has_collectives(const trace::Trace& trace);

/// Returns a trace with every GlobalOp replaced by point-to-point records.
/// The input must pass lint::check_structure(). Request ids introduced by
/// the expansion are allocated above the per-rank maximum already in use.
trace::Trace expand_collectives(
    const trace::Trace& trace,
    CollectiveAlgo algo = CollectiveAlgo::kBinomialTree);

/// Internal tag for a collective message: `phase` distinguishes message
/// roles within one op (fan-in vs fan-out, exchange rounds...).
trace::Tag collective_tag(std::int64_t sequence, int phase);

}  // namespace osim::dimemas
