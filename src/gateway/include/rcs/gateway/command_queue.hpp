// The async boundary between the socket edge and the deterministic core.
//
// The gateway's server loop never touches the simulation: it enqueues
// Commands here and collects replies from the CompletionBoard. The
// simulation thread is the only consumer — it drains the queue at quantum
// boundaries (between event executions, never mid-event), injects the
// requests through an ftm::Client, and posts each reply back under the
// command's ticket. The
// result is that external concurrency collapses onto deterministic sim
// instants: whatever wall-clock moment a producer enqueued at, its request
// enters the simulation exactly at the next quantum boundary.
//
// Both sides are mutex-guarded; the queue swap keeps the consumer's
// critical section O(1) and allocation-free (the drained vector's storage
// is recycled across drains).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rcs/common/value.hpp"

namespace rcs::gateway {

/// One unit of work for the simulation thread.
struct Command {
  enum class Kind {
    kRequest,  ///< inject `request` through the gateway's ftm::Client
    kAdapt,    ///< ask the adaptation engine to transition to FTM `target`
  };

  std::uint64_t ticket{0};
  Kind kind{Kind::kRequest};
  Value request;
  std::string target;
};

/// Multi-producer (any thread), single-consumer (sim thread) queue.
/// Bounded: pushes beyond `capacity` pending commands are rejected (ticket
/// 0, counted) instead of queued, so a producer burst cannot grow the sim
/// thread's drain latency without bound — backpressure surfaces at the edge
/// as HTTP 503 rather than as a silently ballooning quantum.
class CommandQueue {
 public:
  /// Default backlog bound; generous next to the per-quantum drain rate.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// Enqueue a client request; returns the ticket completions are keyed by,
  /// or 0 when the queue is full (tickets start at 1, so 0 is never valid).
  std::uint64_t push_request(Value request) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ != 0 && pending_.size() >= capacity_) {
      ++rejected_;
      return 0;
    }
    const std::uint64_t ticket = next_ticket_++;
    pending_.push_back(Command{ticket, Command::Kind::kRequest,
                               std::move(request), {}});
    ++enqueued_;
    return ticket;
  }

  /// Enqueue an adaptation command (transition to the named FTM); returns
  /// the completion ticket, or 0 when the queue is full.
  std::uint64_t push_adapt(std::string target) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ != 0 && pending_.size() >= capacity_) {
      ++rejected_;
      return 0;
    }
    const std::uint64_t ticket = next_ticket_++;
    pending_.push_back(
        Command{ticket, Command::Kind::kAdapt, Value{}, std::move(target)});
    ++enqueued_;
    return ticket;
  }

  /// Change the backlog bound (0 = unbounded). Already-queued commands are
  /// never dropped; a shrink only affects future pushes.
  void set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
  }
  [[nodiscard]] std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
  }

  /// Consumer side: move every pending command into `out` (cleared first).
  /// The swap recycles `out`'s storage, so a steady-state drain allocates
  /// nothing on the consumer thread.
  void drain(std::vector<Command>& out) {
    out.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    std::swap(pending_, out);
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t enqueued_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return enqueued_;
  }
  [[nodiscard]] std::uint64_t rejected_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Command> pending_;
  std::size_t capacity_{kDefaultCapacity};
  std::uint64_t next_ticket_{1};
  std::uint64_t enqueued_{0};
  std::uint64_t rejected_{0};
};

/// Completions keyed by ticket. The sim thread posts; the gateway's loop
/// takes each reply once it has arrived, without blocking, and learns that
/// it may look through the notify callback. close() (shutdown path) makes
/// every outstanding ticket final: late posts after close are dropped.
class CompletionBoard {
 public:
  /// `notify` runs on every post and on close(), on the posting thread and
  /// with the board's lock held, so that once set_notify(nullptr) returns
  /// it never runs again. It must not call back into the board.
  void set_notify(std::function<void()> notify) {
    std::lock_guard<std::mutex> lock(mutex_);
    notify_ = std::move(notify);
  }

  void post(std::uint64_t ticket, Value reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    ++posted_;
    if (abandoned_.erase(ticket) != 0) return;
    done_.emplace(ticket, std::move(reply));
    if (notify_) notify_();
  }

  /// `ticket`'s reply, removed from the board, or nullopt while it has not
  /// arrived (for good once closed()).
  std::optional<Value> take(std::uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto node = done_.extract(ticket);
    if (node.empty()) return std::nullopt;
    return std::move(node.mapped());
  }

  /// Nobody will take `ticket` (its client left or timed out): drop its
  /// reply now, or when it arrives.
  void abandon(std::uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || done_.erase(ticket) != 0) return;
    abandoned_.insert(ticket);
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    abandoned_.clear();
    if (notify_) notify_();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }
  [[nodiscard]] std::uint64_t posted_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return posted_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Value> done_;
  std::set<std::uint64_t> abandoned_;
  std::function<void()> notify_;
  std::uint64_t posted_{0};
  bool closed_{false};
};

}  // namespace rcs::gateway
