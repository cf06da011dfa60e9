#include "metrics/occupancy.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"

namespace osim::metrics {

namespace {

void add_span(std::vector<double>& histogram, std::int64_t level,
              double seconds) {
  if (seconds <= 0.0) return;
  const auto slot = static_cast<std::size_t>(level);
  if (histogram.size() <= slot) histogram.resize(slot + 1, 0.0);
  histogram[slot] += seconds;
}

}  // namespace

void OccupancyTracker::set_level(double now, std::int64_t level) {
  OSIM_CHECK_MSG(now >= last_change_, "occupancy level set in the past");
  OSIM_CHECK_MSG(level >= 0, "negative occupancy level");
  touched_ = true;
  add_span(histogram_, level_, now - last_change_);
  last_change_ = now;
  if (level != level_) {
    if (keep_samples_) samples_.push_back(OccupancySample{now, level});
    level_ = level;
    peak_ = std::max(peak_, level);
  }
}

OccupancyStats OccupancyTracker::finish(double end) {
  OccupancyStats stats;
  stats.tracked = touched_;
  stats.capacity = capacity_;
  stats.peak = peak_;
  stats.histogram = std::move(histogram_);
  add_span(stats.histogram, level_, end - last_change_);
  stats.samples = std::move(samples_);

  double level_seconds = 0.0;
  double busy = 0.0;
  for (std::size_t l = 0; l < stats.histogram.size(); ++l) {
    level_seconds += static_cast<double>(l) * stats.histogram[l];
    if (l > 0) busy += stats.histogram[l];
  }
  stats.busy_s = busy;
  if (end > 0.0) stats.mean_level = level_seconds / end;
  if (capacity_ > 0) {
    stats.utilization = stats.mean_level / static_cast<double>(capacity_);
  }
  return stats;
}

}  // namespace osim::metrics
