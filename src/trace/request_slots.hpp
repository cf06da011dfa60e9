// Dense per-rank numbering of request ids.
//
// Request ids are arbitrary 64-bit values in the trace format, but recorded
// and transformed traces number them with a per-rank counter from 0. Both
// consumers of the ids — trace::compile, which lowers them to the replay's
// request lanes, and the structural check's requests pass, which tracks
// each request's lifecycle — want a flat array indexed by request instead
// of a tree or hash map keyed by the raw id. RequestSlots hands out those
// indices: dense slots 0..count()-1 in first-lookup order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/expect.hpp"
#include "trace/record.hpp"

namespace osim::trace {

/// The request lane value of a blocking send or receive; never a slot.
inline constexpr std::uint32_t kNoRequestSlot = UINT32_MAX;

/// Renumbers one stream's request ids to dense slots in first-lookup
/// order. An id below twice the stream length (plus slack) indexes a direct
/// table, so the common counter-numbered trace costs one array read per
/// lookup and the table stays bounded by the input; any other id —
/// negative, sparse or huge — goes through a hash map. The mapping is a
/// bijection: looking an id up again returns its slot.
class RequestSlots {
 public:
  explicit RequestSlots(std::size_t records)
      : direct_limit_(2 * static_cast<std::uint64_t>(records) + 64) {}

  std::uint32_t operator()(ReqId id) {
    if (id >= 0 && static_cast<std::uint64_t>(id) < direct_limit_) {
      const auto index = static_cast<std::size_t>(id);
      if (index >= direct_.size()) direct_.resize(index + 1, kNoRequestSlot);
      std::uint32_t& slot = direct_[index];
      if (slot == kNoRequestSlot) slot = take();
      return slot;
    }
    const auto [it, inserted] = sparse_.try_emplace(id, kNoRequestSlot);
    if (inserted) it->second = take();
    return it->second;
  }

  /// Slots handed out so far.
  std::uint32_t count() const { return next_; }

 private:
  std::uint32_t take() {
    OSIM_CHECK_MSG(next_ < kNoRequestSlot, "too many requests in one rank");
    return next_++;
  }

  std::uint64_t direct_limit_;
  std::vector<std::uint32_t> direct_;
  std::unordered_map<ReqId, std::uint32_t> sparse_;
  std::uint32_t next_ = 0;
};

}  // namespace osim::trace
