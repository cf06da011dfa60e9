// Time-weighted resource-occupancy tracking for the replay engine.
//
// An OccupancyTracker follows one integer-valued resource level (messages on
// the global bus pool, transfers holding a node's input or output ports)
// through simulated time and accumulates a time-weighted histogram of the
// levels it visited, plus (when asked to keep it) the change log needed to
// render the occupancy as a Paraver counter timeline. Tracking is passive:
// it never schedules events, so enabling it cannot perturb a replay.
#pragma once

#include <cstdint>
#include <vector>

namespace osim::metrics {

/// One level change, in simulated seconds (for counter timelines).
struct OccupancySample {
  double time_s = 0.0;
  std::int64_t level = 0;
};

/// Finished occupancy statistics over a simulated time span [0, end].
struct OccupancyStats {
  bool tracked = false;        // false = the resource was never observed
  std::int64_t capacity = 0;   // 0 = unbounded
  std::int64_t peak = 0;       // highest level seen
  double mean_level = 0.0;     // time-weighted mean over [0, end]
  double busy_s = 0.0;         // time spent at level > 0
  /// mean_level / capacity; 0 when the capacity is unbounded.
  double utilization = 0.0;
  /// histogram[l] = seconds spent at exactly level l.
  std::vector<double> histogram;
  /// Level-change log in time order (first entry is the first change);
  /// empty unless the tracker kept samples.
  std::vector<OccupancySample> samples;
};

class OccupancyTracker {
 public:
  /// `keep_samples` = false drops the level-change log: only the Paraver
  /// counter records read it, and it grows with every level change.
  explicit OccupancyTracker(bool keep_samples = true)
      : keep_samples_(keep_samples) {}

  void set_capacity(std::int64_t capacity) { capacity_ = capacity; }

  /// Records that the level changed to `level` at simulated time `now`.
  /// Times must be non-decreasing across calls.
  void set_level(double now, std::int64_t level);

  bool tracked() const { return touched_; }

  /// Closes the timeline at `end` and returns the accumulated statistics,
  /// moving the histogram and samples out. Call once.
  OccupancyStats finish(double end);

 private:
  bool keep_samples_ = true;
  std::int64_t capacity_ = 0;
  std::int64_t level_ = 0;
  std::int64_t peak_ = 0;
  double last_change_ = 0.0;
  bool touched_ = false;
  std::vector<double> histogram_;  // closed intervals only
  std::vector<OccupancySample> samples_;
};

}  // namespace osim::metrics
