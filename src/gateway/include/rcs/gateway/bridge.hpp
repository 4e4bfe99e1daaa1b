// SimBridge: the simulation side of the gateway.
//
// Owns the real-time pacing loop. The simulation thread calls run(), which
// alternates three phases per quantum:
//
//   1. drain the CommandQueue and inject every command at the current sim
//      instant (a quantum boundary — the "next safe instant" of the issue:
//      no event is mid-execution, so handler state is consistent),
//   2. advance virtual time by one quantum (sim.run_until),
//   3. throttle: sleep until wall clock catches up with virtual time scaled
//      by `speed` (speed 0 = unthrottled, for tests and CI).
//
// External requests ride a dedicated gateway host + ftm::Client with the
// full retransmission/failover machinery, so an HTTP client transparently
// survives replica crashes and mid-transition quiescence, exactly like a
// simulated client would. Replies come back through the CompletionBoard.
//
// Every snapshot interval the bridge builds two artifacts and hands them to
// the publisher (the WebSocket broadcaster) and the status cache (plain
// GETs): a compact status frame (throughput, queue depth, per-group active
// FTM, transition/trigger events since the last frame) and the full
// obs::snapshot_json metrics export — the same byte-for-byte serialization
// the --metrics-out file exports use.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rcs/core/system.hpp"
#include "rcs/ftm/client.hpp"
#include "rcs/gateway/command_queue.hpp"
#include "rcs/load/fleet.hpp"

namespace rcs::gateway {

struct BridgeOptions {
  /// Virtual seconds advanced per wall second (1.0 = real time, 2.0 = twice
  /// as fast, 0 = no throttle: advance as fast as the host allows).
  double speed{1.0};
  /// Injection granularity: commands enter the sim at multiples of this.
  sim::Duration quantum{20 * sim::kMillisecond};
  /// Status/metrics frame period (virtual time).
  sim::Duration snapshot_every{500 * sim::kMillisecond};
  /// Command backlog bound (0 = unbounded): pushes beyond this many pending
  /// commands are rejected and surface as HTTP 503 at the edge.
  std::size_t queue_capacity{CommandQueue::kDefaultCapacity};
};

class SimBridge {
 public:
  /// Builds the gateway's client host against `system`'s replicas. Call on
  /// the thread that will later run() — the bridge becomes part of the
  /// simulation topology.
  SimBridge(core::ResilientSystem& system, BridgeOptions options = {});

  SimBridge(const SimBridge&) = delete;
  SimBridge& operator=(const SimBridge&) = delete;

  /// Attach a background fleet whose stats ride the status frames (the
  /// fleet must outlive the bridge's run()).
  void attach_fleet(load::ClientFleet* fleet) { fleet_ = fleet; }

  // --- Producer side (any thread) ----------------------------------------
  /// Enqueue an application request; returns the completion ticket, or 0
  /// when the command queue is at capacity (the caller should shed load).
  std::uint64_t submit_request(Value request) {
    return queue_.push_request(std::move(request));
  }
  /// Enqueue a transition to the named FTM; returns the completion ticket,
  /// or 0 when the command queue is at capacity.
  std::uint64_t submit_adapt(std::string ftm_name) {
    return queue_.push_adapt(std::move(ftm_name));
  }
  CompletionBoard& completions() { return board_; }
  CommandQueue& commands() { return queue_; }

  /// Ask the pacing loop to exit (thread-safe; also wakes the throttle).
  void request_stop();
  /// Watch an external flag (e.g. set by a signal handler); polled once per
  /// quantum. Must outlive run().
  void watch_stop_flag(const std::atomic<bool>* flag) { external_stop_ = flag; }

  // --- Published state (any thread) --------------------------------------
  [[nodiscard]] std::uint64_t sim_now_us() const {
    return sim_now_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string latest_status() const;
  [[nodiscard]] std::string latest_metrics() const;
  [[nodiscard]] std::string groups_json() const;
  [[nodiscard]] std::uint64_t injected_total() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Frame sink: called from the sim thread with each status and metrics
  /// frame. Set before run().
  using FramePublisher = std::function<void(const std::string& frame)>;
  void set_publisher(FramePublisher publisher) {
    publisher_ = std::move(publisher);
  }

  // --- Sim thread ---------------------------------------------------------
  /// Run the paced loop until request_stop()/the watched flag, or until the
  /// simulation reaches `until` (0 = no horizon). Returns events processed.
  std::uint64_t run(sim::Time until = 0);

  /// One unpaced iteration (drain + inject + advance one quantum); exposed
  /// for tests that need to single-step the boundary.
  void step_quantum();

  [[nodiscard]] ftm::Client& client() { return *client_; }

 private:
  void drain_and_inject();
  void execute(Command& command);
  void publish_snapshot();
  std::string build_status_frame();
  std::string build_groups_json() const;

  core::ResilientSystem& system_;
  BridgeOptions options_;
  sim::Host* host_{nullptr};
  std::unique_ptr<ftm::Client> client_;
  load::ClientFleet* fleet_{nullptr};

  CommandQueue queue_;
  CompletionBoard board_;
  FramePublisher publisher_;
  /// "gateway.queue.rejected" cell; rejections happen on server threads, so
  /// the sim thread folds the queue's counter into the registry at snapshot
  /// time instead of letting producers write metrics concurrently.
  obs::Counter rejected_counter_;
  std::uint64_t seen_rejected_{0};

  std::atomic<bool> stop_{false};
  const std::atomic<bool>* external_stop_{nullptr};
  std::atomic<std::uint64_t> sim_now_us_{0};
  std::atomic<std::uint64_t> injected_{0};

  /// Throttle sleep interruptible by request_stop().
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  mutable std::mutex published_mutex_;
  std::string latest_status_;
  std::string latest_metrics_;
  std::string latest_groups_;

  /// Scratch for drain() — recycled, so steady-state drains do not allocate
  /// on the sim thread.
  std::vector<Command> drained_;

  // Snapshot bookkeeping (sim thread only).
  std::uint64_t frame_seq_{0};
  std::size_t seen_history_{0};
  std::size_t seen_triggers_{0};
  std::uint64_t last_ok_{0};
  sim::Time last_frame_at_{0};
  sim::Time next_snapshot_{0};
};

}  // namespace rcs::gateway
