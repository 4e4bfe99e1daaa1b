#include "rcs/sim/run_stats.hpp"

#include <algorithm>
#include <cstdio>

namespace rcs::sim {

void RunStats::add(const EventLoop& loop) {
  merge(RunStats{loop.processed(), loop.peak_pending(), loop.wheel_stats()});
}

void RunStats::merge(const RunStats& other) {
  events += other.events;
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  wheel.cascaded_entries += other.wheel.cascaded_entries;
  wheel.bucket_sorts += other.wheel.bucket_sorts;
  wheel.overflow_migrated += other.wheel.overflow_migrated;
  wheel.overflow_peak =
      std::max(wheel.overflow_peak, other.wheel.overflow_peak);
}

std::string RunStats::format(double wall_seconds) const {
  const double rate =
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "summary: %llu events processed, %.0f events/sec, "
      "peak queue depth %zu, wall %.2fs\n"
      "wheel: %llu cascaded, %llu bucket sorts, "
      "%llu overflow migrations, overflow peak %zu\n",
      static_cast<unsigned long long>(events), rate, peak_queue_depth,
      wall_seconds, static_cast<unsigned long long>(wheel.cascaded_entries),
      static_cast<unsigned long long>(wheel.bucket_sorts),
      static_cast<unsigned long long>(wheel.overflow_migrated),
      wheel.overflow_peak);
  return buf;
}

}  // namespace rcs::sim
