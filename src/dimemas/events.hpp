// Discrete-event simulation core: a time-ordered event queue with
// deterministic FIFO tie-breaking for simultaneous events.
//
// The queue is a calendar queue (Brown 1988) tuned for the near-monotone
// timestamp distribution replay produces: most events are scheduled a
// short, similar distance into the future (compute bursts, transfer
// completions), so they land in the current or a nearby bucket and both
// schedule() and pop are O(1) amortized — versus O(log n) heap churn for
// std::priority_queue. Ordering is exact, not approximate: each "year"
// (global bucket number, floor(time / width)) maps to one bucket, years
// are drained in increasing order, and within a year the earliest
// (time, seq) entry wins, so the pop sequence is identical to the heap's
// and replay results stay bit-for-bit deterministic. Each bucket is itself
// a small binary heap on (time, seq), so a bucket that fills up with
// thousands of simultaneous events (every rank finishing an equal compute
// burst) still drains in O(log k) per pop rather than O(k).
//
// Buckets hold 32-byte POD keys {time, year, seq, slot}; the handlers live
// apart in a slab (a vector plus a free list) that `slot` indexes. Heap
// sifts and rebuilds therefore move plain keys, never closures, and each
// handler is moved exactly twice: into its slab slot when scheduled and
// out of it when it runs. Handlers are InlineFunction (48-byte inline
// buffer), so scheduling an event never heap-allocates for the closures
// the replay engine builds, and a freed slot is reused by the next
// schedule().
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/inline_function.hpp"

namespace osim::dimemas {

class EventQueue {
 public:
  using Handler = InlineFunction<void(), 48>;

  EventQueue() { buckets_.resize(kMinBuckets); }

  /// Schedules `fn` at absolute simulated time `time` (>= now()).
  void schedule(double time, Handler fn) {
    OSIM_CHECK_MSG(time >= now_, "event scheduled in the past");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(handlers_.size());
      handlers_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      handlers_[slot] = std::move(fn);
    }
    insert(Key{time, year_of(time), next_seq_++, slot});
    ++size_;
    if (size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
      rebuild(buckets_.size() * 2);
    }
  }

  /// Schedules `fn` after a relative delay (>= 0).
  void schedule_after(double delay, Handler fn) {
    schedule(now_ + delay, std::move(fn));
  }

  double now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Pops and runs the earliest event. Returns false when the queue is
  /// empty. The handler is moved out of its slot, and the slot freed,
  /// before it runs: a handler may schedule more events, which reuse the
  /// slot or grow (and so relocate) the slab.
  bool run_one() {
    if (size_ == 0) return false;
    const Key key = pop();
    OSIM_CHECK(key.time >= now_);
    Handler fn = std::move(handlers_[key.slot]);
    free_slots_.push_back(key.slot);
    now_ = key.time;
    ++processed_;
    fn();
    return true;
  }

  void run_until_empty() {
    while (run_one()) {
    }
  }

 private:
  /// What the buckets order: the event's timestamp and FIFO sequence, plus
  /// the slab slot of its handler.
  struct Key {
    double time;
    std::uint64_t year;  // floor(time / width_) at insertion width
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 32);

  static constexpr std::size_t kMinBuckets = 64;       // power of two
  static constexpr std::size_t kMaxBuckets = 1 << 20;  // power of two

  /// Heap order: the earliest (time, seq) key sits at the bucket front. A
  /// function object, not a function pointer, so the heap sifts inline it.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  void insert(const Key& key) {
    std::vector<Key>& bucket = buckets_[bucket_of(key.year)];
    bucket.push_back(key);
    std::push_heap(bucket.begin(), bucket.end(), Later{});
  }

  std::uint64_t year_of(double time) const {
    double q = time / width_;
    // Clamp runaway clocks instead of invoking UB on the cast; keys
    // sharing the clamped year still pop in exact (time, seq) order.
    if (q > 9.0e18) q = 9.0e18;
    return static_cast<std::uint64_t>(q);
  }

  std::size_t bucket_of(std::uint64_t year) const {
    return static_cast<std::size_t>(year & (buckets_.size() - 1));
  }

  /// Extracts the earliest (time, seq) key. Years are visited in
  /// increasing order; a year's keys all live in one bucket (tagged with
  /// their year so keys a whole cycle ahead are skipped). No key is ever
  /// from a year before the cursor, and year_of() is monotone in time, so
  /// a later year's keys sort after the current year's: the current year
  /// has a key in its bucket exactly when the heap top is from that year.
  /// If a full cycle of buckets turns up nothing — the next event is far
  /// in the future — the earliest year among the bucket tops is where the
  /// cursor jumps.
  Key pop() {
    for (std::size_t walked = 0;; ++walked) {
      std::vector<Key>& bucket = buckets_[bucket_of(current_year_)];
      if (!bucket.empty() && bucket.front().year == current_year_) {
        std::pop_heap(bucket.begin(), bucket.end(), Later{});
        const Key out = bucket.back();
        bucket.pop_back();
        --size_;
        if (size_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
          rebuild(buckets_.size() / 2);
        }
        return out;
      }
      if (walked >= buckets_.size()) {
        current_year_ = earliest_year();
        walked = 0;
      } else {
        ++current_year_;
      }
    }
  }

  std::uint64_t earliest_year() const {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (const std::vector<Key>& bucket : buckets_) {
      if (!bucket.empty() && bucket.front().year < best) {
        best = bucket.front().year;
      }
    }
    return best;
  }

  /// Re-buckets (and re-heaps) every key into `nbuckets` buckets,
  /// resampling the bucket width so keys spread ~2 per bucket across their
  /// time span. Pop order is unaffected: ordering is by (time, seq), never
  /// by layout. Handlers stay where they are in the slab.
  void rebuild(std::size_t nbuckets) {
    std::vector<Key> all;
    all.reserve(size_);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::vector<Key>& bucket : buckets_) {
      for (const Key& key : bucket) {
        if (key.time < lo) lo = key.time;
        if (key.time > hi) hi = key.time;
        all.push_back(key);
      }
      bucket.clear();  // keeps its capacity for the keys to come
    }
    if (hi > lo && !all.empty()) {
      width_ = (hi - lo) / static_cast<double>(all.size()) * 2.0;
      if (width_ < 1e-308) width_ = 1e-308;  // denormal guard
    } else if (!all.empty()) {
      // Degenerate span (every pending key at one timestamp): resample
      // back to the construction default instead of keeping whatever width
      // the previous rebuild landed on. A stale near-denormal width here
      // would map nearby future times to astronomically distant years and
      // turn every subsequent pop into a full bucket walk.
      width_ = 1e-5;
    }
    buckets_.resize(nbuckets);
    // Restart the year cursor at the clock, never at the earliest key: a
    // cursor ahead of year_of(now_) would pop keys scheduled later (by a
    // handler, between now and the earliest pre-rebuild key) out of order.
    // Starting at the clock only costs a forward walk.
    current_year_ = year_of(now_);
    for (Key& key : all) {
      key.year = year_of(key.time);
      insert(key);
    }
  }

  std::vector<std::vector<Key>> buckets_;
  /// Handler slab: handlers_[key.slot] runs when `key` pops. Slots of
  /// events that ran hold empty handlers and sit on free_slots_.
  std::vector<Handler> handlers_;
  std::vector<std::uint32_t> free_slots_;
  double width_ = 1e-5;  // resampled at every rebuild
  std::uint64_t current_year_ = 0;
  std::size_t size_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace osim::dimemas
