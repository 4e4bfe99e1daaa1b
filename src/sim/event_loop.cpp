#include "rcs/sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::sim {

namespace {

/// Level of an event whose deadline differs from the cursor by xor-mask `x`
/// (x >> kPageBits == 0): the index of the highest byte in which they
/// differ. x == 0 (same instant) is level 0.
inline int level_of(std::uint64_t x) {
  return x == 0 ? 0 : (63 - std::countl_zero(x)) >> 3;
}

}  // namespace

TimerId EventLoop::schedule_at(Time at, Action action, std::string_view label) {
  if (at < now_) {
    throw SimError(strf("EventLoop::schedule_at: t=", at, " is in the past (now=",
                        now_, ", label='", label, "')"));
  }
  ensure(static_cast<bool>(action), "EventLoop::schedule_at: empty action");

  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = slots_[index].next;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.live = true;
  slot.at = at;
  slot.seq = next_seq_++;
  place(index);
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return TimerId{(static_cast<std::uint64_t>(slot.generation) << 32) | index};
}

TimerId EventLoop::schedule_after(Duration delay, Action action,
                                  std::string_view label) {
  if (delay < 0) {
    throw SimError(strf("EventLoop::schedule_after: negative delay ", delay,
                        " (label='", label, "')"));
  }
  return schedule_at(now_ + delay, std::move(action), label);
}

EventLoop::Slot* EventLoop::live_slot(std::uint64_t handle) {
  const auto index = static_cast<std::uint32_t>(handle & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(handle >> 32);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != generation) return nullptr;
  return &slot;
}

void EventLoop::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.action = nullptr;
  slot.live = false;
  ++slot.generation;  // invalidates any id still referencing the slot
  slot.prev = kUnlinked;
  slot.next = free_head_;
  free_head_ = index;
  --live_;
}

void EventLoop::set_bit(int level, std::uint32_t slot) {
  bits_[static_cast<std::size_t>(level)][slot >> 6] |= 1ull << (slot & 63);
  ++nonempty_[static_cast<std::size_t>(level)];
}

void EventLoop::clear_bit(int level, std::uint32_t slot) {
  bits_[static_cast<std::size_t>(level)][slot >> 6] &= ~(1ull << (slot & 63));
  --nonempty_[static_cast<std::size_t>(level)];
}

int EventLoop::next_occupied(int level, std::uint32_t from) const {
  const auto& words = bits_[static_cast<std::size_t>(level)];
  std::uint32_t w = from >> 6;
  std::uint64_t word = words[w] & (~0ull << (from & 63));
  for (;;) {
    if (word != 0) {
      return static_cast<int>((w << 6) +
                              static_cast<std::uint32_t>(std::countr_zero(word)));
    }
    if (++w >= words.size()) return -1;
    word = words[w];
  }
}

void EventLoop::append(int level, std::uint32_t slot, std::uint32_t index) {
  Bucket& b = bucket(level, slot);
  Slot& s = slots_[index];
  s.next = kNil;
  s.prev = b.tail;
  if (b.tail == kNil) {
    b.head = index;
    set_bit(level, slot);
  } else {
    slots_[b.tail].next = index;
  }
  b.tail = index;
}

void EventLoop::place(std::uint32_t index) {
  Slot& s = slots_[index];
  const std::uint64_t x =
      static_cast<std::uint64_t>(s.at) ^ static_cast<std::uint64_t>(cur_);
  if ((x >> kPageBits) != 0) {
    // Beyond the wheel's current page: park in the overflow heap.
    s.prev = kUnlinked;
    overflow_.push_back(OverflowEntry{
        s.at, s.seq, (static_cast<std::uint64_t>(s.generation) << 32) | index});
    std::push_heap(overflow_.begin(), overflow_.end(), overflow_later);
    if (overflow_.size() > stats_.overflow_peak) {
      stats_.overflow_peak = overflow_.size();
    }
    return;
  }
  const int level = level_of(x);
  append(level,
         static_cast<std::uint32_t>(static_cast<std::uint64_t>(s.at) >>
                                    (level * kSlotBits)) &
             kSlotMask,
         index);
}

void EventLoop::unlink(std::uint32_t index) {
  Slot& s = slots_[index];
  const std::uint64_t x =
      static_cast<std::uint64_t>(s.at) ^ static_cast<std::uint64_t>(cur_);
  assert((x >> kPageBits) == 0 && "linked slots are always on the wheel");
  const int level = level_of(x);
  const std::uint32_t slot =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(s.at) >>
                                 (level * kSlotBits)) &
      kSlotMask;
  Bucket& b = bucket(level, slot);
  if (s.prev == kNil) {
    b.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNil) {
    b.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (b.head == kNil) clear_bit(level, slot);
  s.prev = kUnlinked;
}

void EventLoop::cancel(TimerId id) {
  Slot* slot = live_slot(id.value());
  if (slot == nullptr) return;
  const auto index = static_cast<std::uint32_t>(id.value() & 0xFFFFFFFFu);
  // Sealed or overflow entries are not in a bucket list; the generation bump
  // in release() is what invalidates their scratch/heap reference.
  if (slot->prev != kUnlinked) unlink(index);
  release(index);
}

void EventLoop::cascade(int level, std::uint32_t slot) {
  Bucket& b = bucket(level, slot);
  std::uint32_t index = b.head;
  b.head = kNil;
  b.tail = kNil;
  clear_bit(level, slot);
  while (index != kNil) {
    const std::uint32_t next = slots_[index].next;
    place(index);  // re-anchor against the advanced cursor: level drops
    ++stats_.cascaded_entries;
    index = next;
  }
}

void EventLoop::migrate_overflow() {
  const std::uint64_t page = static_cast<std::uint64_t>(cur_) >> kPageBits;
  while (!overflow_.empty()) {
    const OverflowEntry& top = overflow_.front();
    if ((static_cast<std::uint64_t>(top.at) >> kPageBits) > page) break;
    const std::uint64_t handle = top.handle;
    std::pop_heap(overflow_.begin(), overflow_.end(), overflow_later);
    overflow_.pop_back();
    if (live_slot(handle) == nullptr) continue;  // cancelled while parked
    place(static_cast<std::uint32_t>(handle & 0xFFFFFFFFu));
    ++stats_.overflow_migrated;
  }
}

void EventLoop::advance_to(Time t) {
  const auto a = static_cast<std::uint64_t>(cur_);
  const auto b = static_cast<std::uint64_t>(t);
  const std::uint64_t x = a ^ b;
  cur_ = t;
  // Same slot at every level above 0: nothing can cascade or migrate.
  if (x < kSlotsPerLevel) return;
  if ((x >> kPageBits) != 0) migrate_overflow();
  for (int level = kLevels - 1; level >= 1; --level) {
    if ((a >> (level * kSlotBits)) != (b >> (level * kSlotBits))) {
      const auto slot =
          static_cast<std::uint32_t>(b >> (level * kSlotBits)) & kSlotMask;
      if (bucket(level, slot).head != kNil) cascade(level, slot);
    }
  }
}

void EventLoop::seal_current_bucket() {
  Bucket& b = bucket(0, static_cast<std::uint32_t>(cur_) & kSlotMask);
  if (!draining_) {
    scratch_.clear();
    scratch_head_ = 0;
    draining_ = true;
  }
  const std::size_t start = scratch_.size();
  std::uint32_t index = b.head;
  while (index != kNil) {
    Slot& s = slots_[index];
    assert(s.at == cur_ && "level-0 buckets hold exactly one instant");
    scratch_.push_back(ScratchEntry{
        s.seq, (static_cast<std::uint64_t>(s.generation) << 32) | index});
    s.prev = kUnlinked;
    index = s.next;
  }
  b.head = kNil;
  b.tail = kNil;
  clear_bit(0, static_cast<std::uint32_t>(cur_) & kSlotMask);
  // Direct appends arrive in seq order; only a cascade interleaving with
  // them can unsort the bucket. Re-sealing mid-drain appends events
  // scheduled at the running instant, whose seqs exceed everything sealed
  // before, so the check below stays a no-op scan in the common case.
  const auto by_seq = [](const ScratchEntry& lhs, const ScratchEntry& rhs) {
    return lhs.seq < rhs.seq;
  };
  if (!std::is_sorted(scratch_.begin() + static_cast<std::ptrdiff_t>(start),
                      scratch_.end(), by_seq)) {
    std::sort(scratch_.begin() + static_cast<std::ptrdiff_t>(start),
              scratch_.end(), by_seq);
    ++stats_.bucket_sorts;
  }
}

bool EventLoop::advance_to_next_instant(Time limit) {
  for (;;) {
    int level = 0;
    int slot = -1;
    for (; level < kLevels; ++level) {
      if (nonempty_[static_cast<std::size_t>(level)] == 0) continue;
      slot = next_occupied(
          level, static_cast<std::uint32_t>(static_cast<std::uint64_t>(cur_) >>
                                            (level * kSlotBits)) &
                     kSlotMask);
      if (slot >= 0) break;
    }
    if (slot >= 0) {
      const std::uint64_t span = 1ull << ((level + 1) * kSlotBits);
      const Time base = static_cast<Time>(
          (static_cast<std::uint64_t>(cur_) & ~(span - 1)) |
          (static_cast<std::uint64_t>(slot) << (level * kSlotBits)));
      if (base > limit) return false;
      if (level == 0) {
        advance_to(base);
        return true;  // base is the exact next instant
      }
      // This is the earliest nonempty bucket wheel-wide (lower levels are
      // provably empty — every occupied slot sits at or after the cursor's
      // index, and the scan saw none — and higher levels hold strictly
      // later deadlines). If it contains exactly one entry, that entry is
      // the global next event: jump the cursor straight to its deadline
      // instead of cascading it to level 0 and rescanning. No slot the jump
      // enters below `level` can be occupied, so nothing needs to cascade.
      Bucket& hb = bucket(level, static_cast<std::uint32_t>(slot));
      const std::uint32_t lone = hb.head;
      Slot& s = slots_[lone];
      if (s.next == kNil && s.at <= limit) {
        hb.head = kNil;
        hb.tail = kNil;
        clear_bit(level, static_cast<std::uint32_t>(slot));
        s.prev = kUnlinked;
        cur_ = s.at;  // same page: levels above `level` are untouched
        direct_ = lone;
        return true;
      }
      advance_to(base);
      continue;  // cascaded that slot; rescan the lower levels
    }
    // Wheel empty: the next instant (if any) lives in the overflow heap.
    // Drop cancelled tops so a dead far-future timer cannot wedge the scan.
    while (!overflow_.empty() &&
           live_slot(overflow_.front().handle) == nullptr) {
      std::pop_heap(overflow_.begin(), overflow_.end(), overflow_later);
      overflow_.pop_back();
    }
    if (overflow_.empty()) return false;
    if (overflow_.front().at > limit) return false;
    advance_to(overflow_.front().at);  // page crossing migrates it in
  }
}

void EventLoop::reset_idle() {
  draining_ = false;
  direct_ = kNil;
  scratch_.clear();
  scratch_head_ = 0;
  overflow_.clear();  // only cancelled entries can remain when live_ == 0
  cur_ = now_;        // re-anchor placement windows for the next schedule
}

bool EventLoop::pop_and_run(Time limit) {
  for (;;) {
    while (scratch_head_ < scratch_.size()) {
      const ScratchEntry entry = scratch_[scratch_head_++];
      Slot* slot = live_slot(entry.handle);
      if (slot == nullptr) continue;  // cancelled after sealing
      now_ = cur_;
      // Move the action out before running: the action may schedule/cancel.
      Action action = std::move(slot->action);
      release(static_cast<std::uint32_t>(entry.handle & 0xFFFFFFFFu));
      ++processed_;
      if (hook_ != nullptr) hook_->on_event(now_, live_);
      action();
      return true;
    }
    if (draining_ &&
        bucket(0, static_cast<std::uint32_t>(cur_) & kSlotMask).head == kNil) {
      draining_ = false;
    }
    if (!draining_) {
      if (live_ == 0) {
        reset_idle();
        return false;
      }
      if (!advance_to_next_instant(limit)) return false;
    }
    // The next event is either primed in direct_ (lone entry lifted out of
    // a higher-level bucket) or sits in the cursor's level-0 bucket: the
    // instant we just advanced to, or events re-scheduled at the running
    // instant. A lone entry runs directly — no scratch traffic, no sort
    // check — which is the whole story for shallow request/response
    // ping-pong.
    std::uint32_t head = direct_;
    if (head != kNil) {
      direct_ = kNil;
    } else {
      const auto b0 = static_cast<std::uint32_t>(cur_) & kSlotMask;
      Bucket& b = bucket(0, b0);
      head = b.head;
      if (slots_[head].next != kNil) {
        seal_current_bucket();
        continue;
      }
      b.head = kNil;
      b.tail = kNil;
      clear_bit(0, b0);
      slots_[head].prev = kUnlinked;
    }
    if (!draining_) {
      scratch_.clear();
      scratch_head_ = 0;
      draining_ = true;  // same-instant schedules land in the cursor bucket
    }
    now_ = cur_;
    Action action = std::move(slots_[head].action);
    release(head);
    ++processed_;
    if (hook_ != nullptr) hook_->on_event(now_, live_);
    action();
    return true;
  }
}

bool EventLoop::step() {
  return pop_and_run(std::numeric_limits<Time>::max());
}

std::size_t EventLoop::run(std::size_t max_events) {
  constexpr Time kNoLimit = std::numeric_limits<Time>::max();
  std::size_t n = 0;
  while ((max_events == 0 || n < max_events) && pop_and_run(kNoLimit)) ++n;
  return n;
}

std::size_t EventLoop::run_until(Time t) {
  ensure(t >= now_, "EventLoop::run_until: target time is in the past");
  std::size_t n = 0;
  while (pop_and_run(t)) ++n;
  advance_to(t);
  now_ = t;
  return n;
}

void EventLoop::reserve(std::size_t n) {
  slots_.reserve(n);
  scratch_.reserve(n);
  overflow_.reserve(std::min<std::size_t>(n, 1024));
}

}  // namespace rcs::sim
