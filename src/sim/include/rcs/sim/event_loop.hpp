// Discrete-event scheduler: hierarchical timer wheel.
//
// A single-threaded scheduler of timestamped closures. Events scheduled at
// the same instant run in scheduling order (stable FIFO tiebreak), which is
// what makes distributed interleavings reproducible. The execution order is
// a strict total order on (timestamp, seq) — exactly the order the previous
// binary-heap core produced — so every determinism gate (chaos replay,
// traced smoke, load ramp, bench rerun) stays byte-identical.
//
// Why a wheel and not a heap: the heap's O(log n) pop walks a cache-hostile
// path through the whole pending array, which is exactly the regime fleet
//-scale failure detectors and per-client retry timers create (the PR 5
// timer_churn 0.68x regression at 2M pending entries). The wheel gives O(1)
// amortized schedule/cancel and near-sequential drain within a bucket.
//
// Layout: kLevels levels of kSlotsPerLevel buckets. Level k slot width is
// 256^k microseconds, so the wheel spans 2^32 us (~71.6 virtual minutes)
// ahead of the cursor; events beyond that "page" wait in a small overflow
// min-heap and are migrated in when the cursor crosses a page boundary.
// An event lives at the level of the highest byte in which its deadline
// differs from the cursor, and cascades one level down each time the cursor
// enters the higher-level slot containing it — at most kLevels-1 moves.
// Per-level occupancy bitmaps make "find next nonempty bucket" a few word
// scans, so draining a sparse far future skips empty regions in O(1).
//
// Actions live in a free-list slab; a TimerId carries its slot index plus
// the slot's generation at scheduling time, so stale ids are rejected with
// one array access. Bucket membership is intrusive (prev/next indices in
// the slab slot itself): schedule appends to a bucket tail, cancel unlinks
// in O(1) and recycles the slot immediately, and no per-event node is ever
// allocated. When a level-0 bucket's instant is reached it is "sealed":
// its entries move to a reusable scratch vector, sorted by seq if cascades
// interleaved them (direct appends are already FIFO), then drained in
// order. reserve() pre-sizes the slab and scratch so even a multi-million
// -entry ramp performs no allocation in the measured window.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/sim/inplace_action.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {

class EventLoop {
 public:
  /// Small-buffer callable: hot-path closures run without heap traffic.
  using Action = InplaceAction;

  /// Observer invoked once per executed event, after the clock has advanced
  /// and before the action runs. Installed by the owning Simulation to feed
  /// the observability plane; a null hook costs one predictable branch.
  class Hook {
   public:
    virtual ~Hook() = default;
    virtual void on_event(Time now, std::size_t queue_depth) = 0;
  };

  /// Wheel-internal traffic counters (reported by the runners' stderr
  /// summaries; deterministic, but not part of any cmp-gated stdout).
  struct WheelStats {
    /// Entries moved one level down when the cursor entered their slot.
    std::uint64_t cascaded_entries{0};
    /// Sealed buckets whose entries needed a seq sort (cascade interleaved
    /// with direct appends); everything else drained pre-sorted.
    std::uint64_t bucket_sorts{0};
    /// Far-future events migrated from the overflow heap into the wheel.
    std::uint64_t overflow_migrated{0};
    /// High-water mark of the overflow heap.
    std::size_t overflow_peak{0};
  };

  void set_hook(Hook* hook) { hook_ = hook; }

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` at absolute virtual time `at` (>= now). The label is
  /// only used in error messages at scheduling time; it is never stored.
  TimerId schedule_at(Time at, Action action, std::string_view label = {});
  /// Schedule `action` after `delay` (>= 0).
  TimerId schedule_after(Duration delay, Action action,
                         std::string_view label = {});

  /// Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(TimerId id);

  /// Run one event; returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty (or max_events processed; 0 = unlimited).
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 0);

  /// Run all events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(Time t);

  /// Run all events within the next `d` of virtual time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Pre-size the slot slab, drain scratch and overflow heap for a pending
  /// queue depth of `n`, so a deep schedule ramp stays allocation-free.
  void reserve(std::size_t n);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// High-water mark of pending() over the loop's lifetime (queue depth).
  [[nodiscard]] std::size_t peak_pending() const { return peak_live_; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] const WheelStats& wheel_stats() const { return stats_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kSlotBits;
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr int kPageBits = kLevels * kSlotBits;  // wheel span: 2^32 us
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// prev value marking a slot that is in no bucket list (sealed into the
  /// drain scratch, or parked in the overflow heap).
  static constexpr std::uint32_t kUnlinked = 0xFFFFFFFEu;

  struct Slot {
    Action action;
    Time at{0};
    std::uint64_t seq{0};  // FIFO tiebreak for equal timestamps
    // Starts at 1 so no live handle ever equals the default TimerId{0};
    // bumped on every release, so stale ids never match.
    std::uint32_t generation{1};
    std::uint32_t next{kNil};  // bucket chain when live; free chain when not
    std::uint32_t prev{kUnlinked};
    bool live{false};
  };
  struct Bucket {
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
  };
  struct OverflowEntry {  // copies (at, seq) so stale entries still order
    Time at;
    std::uint64_t seq;
    std::uint64_t handle;
  };
  struct ScratchEntry {
    std::uint64_t seq;
    std::uint64_t handle;
  };

  /// Min-heap order on (at, seq) for std::push_heap/pop_heap.
  static bool overflow_later(const OverflowEntry& a, const OverflowEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  [[nodiscard]] Slot* live_slot(std::uint64_t handle);
  void release(std::uint32_t index);
  /// Insert slot `index` (at/seq already set) into the wheel or overflow,
  /// positioned relative to the current cursor.
  void place(std::uint32_t index);
  void append(int level, std::uint32_t slot, std::uint32_t index);
  void unlink(std::uint32_t index);
  /// Move every entry of a higher-level bucket one level down (the cursor
  /// just entered that bucket's slot).
  void cascade(int level, std::uint32_t slot);
  /// Advance the wheel cursor to t, cascading every higher-level slot the
  /// cursor enters and migrating overflow pages it crosses into.
  void advance_to(Time t);
  void migrate_overflow();
  /// Move the level-0 bucket at the cursor's instant into the drain scratch
  /// (sorted by seq); append-only for same-instant events scheduled while
  /// already draining.
  void seal_current_bucket();
  /// Locate the earliest pending instant <= limit and advance the cursor to
  /// it. Returns false (cursor <= limit untouched beyond cascade points)
  /// when nothing is pending by `limit`.
  bool advance_to_next_instant(Time limit);
  bool pop_and_run(Time limit);
  [[nodiscard]] int next_occupied(int level, std::uint32_t from) const;
  [[nodiscard]] Bucket& bucket(int level, std::uint32_t slot) {
    return buckets_[static_cast<std::size_t>(level) * kSlotsPerLevel + slot];
  }
  void set_bit(int level, std::uint32_t slot);
  void clear_bit(int level, std::uint32_t slot);
  /// Everything pending is gone: drop stale overflow/scratch leftovers and
  /// rewind the cursor so placement windows re-anchor at now().
  void reset_idle();

  Time now_{0};
  /// Wheel cursor: where placement windows are anchored. Equal to now_ at
  /// every point user code runs; may lead now_ transiently inside a pop
  /// while the cursor walks cascade boundaries toward the next instant.
  Time cur_{0};
  Hook* hook_{nullptr};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  std::size_t live_{0};
  std::size_t peak_live_{0};
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNil};
  std::array<Bucket, static_cast<std::size_t>(kLevels) * kSlotsPerLevel>
      buckets_{};
  /// Occupancy bitmap per level (256 slots = 4 words each).
  std::array<std::array<std::uint64_t, kSlotsPerLevel / 64>, kLevels> bits_{};
  /// Count of nonempty buckets per level: lets the next-instant scan skip
  /// whole empty levels without touching their bitmaps.
  std::array<std::uint16_t, kLevels> nonempty_{};
  /// Min-heap on (at, seq) of events beyond the wheel's current page.
  std::vector<OverflowEntry> overflow_;
  /// Sealed entries of the instant being drained, in seq order.
  std::vector<ScratchEntry> scratch_;
  std::size_t scratch_head_{0};
  /// Slot index primed by advance_to_next_instant when the next instant's
  /// lone event was lifted straight out of a higher-level bucket (no level-0
  /// round trip); consumed by the immediately following pop.
  std::uint32_t direct_{kNil};
  /// True while scratch/current-instant bucket still owns the cursor tick.
  bool draining_{false};
  WheelStats stats_;
};

}  // namespace rcs::sim
