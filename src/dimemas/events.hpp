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
// Handlers are InlineFunction (48-byte inline buffer), so scheduling an
// event never heap-allocates for the closures the replay engine builds.
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
    insert(Entry{time, year_of(time), next_seq_++, std::move(fn)});
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
  /// empty. The entry is moved out of its bucket before the handler runs —
  /// no copy-then-pop workaround (the old std::priority_queue only exposed
  /// a const top()).
  bool run_one() {
    if (size_ == 0) return false;
    Entry entry = pop();
    OSIM_CHECK(entry.time >= now_);
    now_ = entry.time;
    ++processed_;
    entry.fn();
    return true;
  }

  void run_until_empty() {
    while (run_one()) {
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t year;  // floor(time / width_) at insertion width
    std::uint64_t seq;
    Handler fn;
  };

  static constexpr std::size_t kMinBuckets = 64;       // power of two
  static constexpr std::size_t kMaxBuckets = 1 << 20;  // power of two

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // FIFO among simultaneous events
  }
  /// Heap order: the earliest (time, seq) entry sits at the bucket front.
  static bool later(const Entry& a, const Entry& b) { return earlier(b, a); }

  void insert(Entry entry) {
    std::vector<Entry>& bucket = buckets_[bucket_of(entry.year)];
    bucket.push_back(std::move(entry));
    std::push_heap(bucket.begin(), bucket.end(), later);
  }

  std::uint64_t year_of(double time) const {
    double q = time / width_;
    // Clamp runaway clocks instead of invoking UB on the cast; entries
    // sharing the clamped year still pop in exact (time, seq) order.
    if (q > 9.0e18) q = 9.0e18;
    return static_cast<std::uint64_t>(q);
  }

  std::size_t bucket_of(std::uint64_t year) const {
    return static_cast<std::size_t>(year & (buckets_.size() - 1));
  }

  /// Extracts the earliest (time, seq) entry. Years are visited in
  /// increasing order; a year's entries all live in one bucket (tagged with
  /// their year so entries a whole cycle ahead are skipped). No entry is
  /// ever from a year before the cursor, and year_of() is monotone in
  /// time, so a later year's entries sort after the current year's: the
  /// current year has an entry in its bucket exactly when the heap top is
  /// from that year. If a full cycle of buckets turns up nothing — the
  /// next event is far in the future — the earliest year among the bucket
  /// tops is where the cursor jumps.
  Entry pop() {
    for (std::size_t walked = 0;; ++walked) {
      std::vector<Entry>& bucket = buckets_[bucket_of(current_year_)];
      if (!bucket.empty() && bucket.front().year == current_year_) {
        std::pop_heap(bucket.begin(), bucket.end(), later);
        Entry out = std::move(bucket.back());
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
    for (const std::vector<Entry>& bucket : buckets_) {
      if (!bucket.empty() && bucket.front().year < best) {
        best = bucket.front().year;
      }
    }
    return best;
  }

  /// Re-buckets (and re-heaps) every entry into `nbuckets` buckets,
  /// resampling the bucket width so entries spread ~2 per bucket across
  /// their time span. Pop order is unaffected: ordering is by (time, seq),
  /// never by layout.
  void rebuild(std::size_t nbuckets) {
    std::vector<Entry> all;
    all.reserve(size_);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::vector<Entry>& bucket : buckets_) {
      for (Entry& entry : bucket) {
        if (entry.time < lo) lo = entry.time;
        if (entry.time > hi) hi = entry.time;
        all.push_back(std::move(entry));
      }
      bucket.clear();
    }
    if (hi > lo && !all.empty()) {
      width_ = (hi - lo) / static_cast<double>(all.size()) * 2.0;
      if (width_ < 1e-308) width_ = 1e-308;  // denormal guard
    } else if (!all.empty()) {
      // Degenerate span (every pending entry at one timestamp): resample
      // back to the construction default instead of keeping whatever width
      // the previous rebuild landed on. A stale near-denormal width here
      // would map nearby future times to astronomically distant years and
      // turn every subsequent pop into a full bucket walk.
      width_ = 1e-5;
    }
    buckets_.clear();
    buckets_.resize(nbuckets);
    // Restart the year cursor at the clock, never at the earliest entry:
    // a cursor ahead of year_of(now_) would pop entries scheduled later
    // (by a handler, between now and the earliest pre-rebuild entry) out
    // of order. Starting at the clock only costs a forward walk.
    current_year_ = year_of(now_);
    for (Entry& entry : all) {
      entry.year = year_of(entry.time);
      insert(std::move(entry));
    }
  }

  std::vector<std::vector<Entry>> buckets_;
  double width_ = 1e-5;  // resampled at every rebuild
  std::uint64_t current_year_ = 0;
  std::size_t size_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace osim::dimemas
