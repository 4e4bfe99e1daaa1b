// Scheduler accounting of one or more finished runs.
//
// Campaign, sweep and scenario results each carry one RunStats; the runners
// merge them and print the same two stderr lines (`summary:` and `wheel:`),
// so stdout stays byte-identical for the determinism cmp gates. Every field
// is a pure function of the runs; only the wall time passed to format() is
// not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "rcs/sim/event_loop.hpp"

namespace rcs::sim {

struct RunStats {
  /// Scheduler events processed.
  std::uint64_t events{0};
  /// High-water mark of the pending-event queue.
  std::size_t peak_queue_depth{0};
  /// Timer-wheel traffic counters (cascades, sorts, overflow migrations).
  EventLoop::WheelStats wheel{};

  /// Fold in the lifetime counters of a finished loop.
  void add(const EventLoop& loop);
  /// Fold in another run's stats: counters add, high-water marks take the
  /// maximum.
  void merge(const RunStats& other);

  /// The `summary:` and `wheel:` lines (newline-terminated) for a run that
  /// took `wall_seconds` of real time.
  [[nodiscard]] std::string format(double wall_seconds) const;
};

}  // namespace rcs::sim
