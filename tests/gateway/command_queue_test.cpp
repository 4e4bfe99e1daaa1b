// The command-queue boundary: external threads hand work to the simulation
// without ever touching it. These tests pin the contract the gateway rests
// on: tickets are unique, drains move everything exactly once, each
// completion is taken once under its own ticket, and — the load-bearing
// property — commands produced concurrently from many real threads are
// injected only at quantum boundaries, so the deterministic core observes
// them at deterministic sim instants. The concurrent cases double as the
// TSan surface for the subsystem (CI runs this binary under
// -fsanitize=thread).
#include "rcs/gateway/command_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "rcs/ftm/config.hpp"
#include "rcs/gateway/bridge.hpp"

namespace rcs::gateway {
namespace {

TEST(CommandQueue, TicketsAreUniqueAndDrainMovesEverything) {
  CommandQueue queue;
  std::vector<std::uint64_t> tickets;
  tickets.push_back(queue.push_request(Value::map().set("op", "get")));
  tickets.push_back(queue.push_adapt("LFR"));
  tickets.push_back(queue.push_request(Value::map().set("op", "put")));
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.enqueued_total(), 3u);

  std::set<std::uint64_t> unique(tickets.begin(), tickets.end());
  EXPECT_EQ(unique.size(), tickets.size());

  std::vector<Command> drained;
  queue.drain(drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(drained[0].kind, Command::Kind::kRequest);
  EXPECT_EQ(drained[1].kind, Command::Kind::kAdapt);
  EXPECT_EQ(drained[1].target, "LFR");
  EXPECT_EQ(drained[0].ticket, tickets[0]);
  EXPECT_EQ(drained[2].ticket, tickets[2]);

  // A second drain is empty: commands move exactly once.
  std::vector<Command> again;
  queue.drain(again);
  EXPECT_TRUE(again.empty());
}

TEST(CommandQueue, CapacityBoundsBacklogAndCountsRejections) {
  CommandQueue queue;
  queue.set_capacity(2);
  EXPECT_EQ(queue.capacity(), 2u);
  const auto first = queue.push_request(Value::map().set("op", "get"));
  const auto second = queue.push_adapt("LFR");
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);

  // Full: both kinds are rejected with the reserved ticket 0 and counted;
  // nothing already queued is disturbed.
  EXPECT_EQ(queue.push_request(Value::map().set("op", "get")), 0u);
  EXPECT_EQ(queue.push_adapt("PBR"), 0u);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.enqueued_total(), 2u);
  EXPECT_EQ(queue.rejected_total(), 2u);

  // Draining frees capacity; tickets keep advancing past the rejections.
  std::vector<Command> drained;
  queue.drain(drained);
  ASSERT_EQ(drained.size(), 2u);
  const auto third = queue.push_request(Value::map().set("op", "get"));
  EXPECT_NE(third, 0u);
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);

  // Capacity 0 lifts the bound without resetting the rejection count.
  queue.set_capacity(0);
  for (int i = 0; i < 100; ++i) EXPECT_NE(queue.push_adapt("LFR"), 0u);
  EXPECT_EQ(queue.rejected_total(), 2u);
}

TEST(CompletionBoard, PostThenTakeReturnsTheReplyOnce) {
  CompletionBoard board;
  board.post(7, Value::map().set("result", 42));
  const auto reply = board.take(7);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at("result").as_int(), 42);
  EXPECT_EQ(board.posted_total(), 1u);
  EXPECT_FALSE(board.take(7).has_value());
}

TEST(CompletionBoard, TakeBeforeAPostReturnsNothing) {
  CompletionBoard board;
  EXPECT_FALSE(board.take(99).has_value());
  EXPECT_FALSE(board.closed());
}

TEST(CompletionBoard, CloseNotifiesAndDropsLatePosts) {
  CompletionBoard board;
  int notified = 0;
  board.set_notify([&] { ++notified; });
  board.close();
  EXPECT_TRUE(board.closed());
  EXPECT_EQ(notified, 1);
  // Posts after close are dropped, not resurrected, and wake nobody.
  board.post(5, Value::map().set("result", 1));
  EXPECT_FALSE(board.take(5).has_value());
  EXPECT_EQ(notified, 1);
}

TEST(CompletionBoard, AbandonedTicketsLeaveNothingBehind) {
  CompletionBoard board;
  int notified = 0;
  board.set_notify([&] { ++notified; });
  // Abandoned before its reply arrives: the reply is dropped on arrival.
  board.abandon(3);
  board.post(3, Value::map().set("result", 3));
  EXPECT_FALSE(board.take(3).has_value());
  EXPECT_EQ(notified, 0);
  // Abandoned after: the waiting reply goes at once.
  board.post(4, Value::map().set("result", 4));
  EXPECT_EQ(notified, 1);
  board.abandon(4);
  EXPECT_FALSE(board.take(4).has_value());
  EXPECT_EQ(board.posted_total(), 2u);
  // A cleared callback is never called again.
  board.set_notify(nullptr);
  board.post(6, Value::map().set("result", 6));
  EXPECT_EQ(notified, 1);
  EXPECT_TRUE(board.take(6).has_value());
}

TEST(CompletionBoard, ConcurrentPostsEachLandUnderTheirOwnTicket) {
  CompletionBoard board;
  constexpr int kPosters = 8;
  std::atomic<int> notified{0};
  board.set_notify([&] { notified.fetch_add(1); });
  std::vector<std::thread> posters;
  for (int i = kPosters - 1; i >= 0; --i) {
    posters.emplace_back([&board, i] {
      board.post(static_cast<std::uint64_t>(i), Value::map().set("result", i));
    });
  }
  // Take while the posters race: every ticket yields its own reply once.
  std::vector<std::int64_t> got(kPosters, -1);
  for (int remaining = kPosters; remaining > 0;) {
    for (int i = 0; i < kPosters; ++i) {
      if (got[static_cast<std::size_t>(i)] >= 0) continue;
      if (const auto reply = board.take(static_cast<std::uint64_t>(i))) {
        got[static_cast<std::size_t>(i)] = reply->at("result").as_int();
        --remaining;
      }
    }
  }
  for (auto& t : posters) t.join();
  for (int i = 0; i < kPosters; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i) << "ticket " << i;
  }
  EXPECT_EQ(notified.load(), kPosters);
}

/// Poll `board` for `ticket` while another thread steps the simulation;
/// nullopt once the board closes or a minute passes.
std::optional<Value> await(CompletionBoard& board, std::uint64_t ticket) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto reply = board.take(ticket)) return reply;
    if (board.closed()) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

/// One ResilientSystem + bridge, the shape gateway_runner builds.
struct BridgeFixture {
  core::ResilientSystem system;
  SimBridge bridge;

  explicit BridgeFixture(BridgeOptions options = {.speed = 0.0})
      : system(core::SystemOptions{}), bridge(system, options) {
    system.deploy_and_wait(ftm::FtmConfig::pbr());
  }
};

TEST(SimBridge, CommandsLandOnlyAtQuantumBoundaries) {
  BridgeFixture fx;
  auto& sim = fx.system.sim();
  const sim::Time start = sim.now();
  const sim::Duration quantum = BridgeOptions{}.quantum;

  // A command pushed mid-quantum is invisible until the next step.
  const auto ticket = fx.bridge.submit_request(
      Value::map().set("op", "put").set("key", "k").set("value", 1));
  EXPECT_EQ(fx.bridge.injected_total(), 0u);

  // Exactly one step: the command is injected at `start` (the boundary) and
  // virtual time advances exactly one quantum — a deterministic instant
  // independent of when the producer thread ran.
  fx.bridge.step_quantum();
  EXPECT_EQ(fx.bridge.injected_total(), 1u);
  EXPECT_EQ(sim.now(), start + quantum);

  // The reply arrives within a few quanta of simulated protocol time.
  std::optional<Value> reply;
  for (int i = 0; i < 100 && !reply; ++i) {
    fx.bridge.step_quantum();
    reply = fx.bridge.completions().take(ticket);
  }
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->has("result"));
  // However many quanta that took, the clock sits exactly on a boundary.
  EXPECT_EQ((sim.now() - start) % quantum, 0);
}

TEST(SimBridge, ConcurrentProducersAllCompleteAndSerialize) {
  BridgeFixture fx;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;

  // Real producer threads racing against the stepping sim thread: the exact
  // topology TSan must find clean.
  std::vector<std::uint64_t> tickets(kThreads * kPerThread);
  std::vector<std::thread> producers;
  std::atomic<bool> stepping{true};
  std::thread sim_thread([&] {
    while (stepping.load(std::memory_order_acquire)) fx.bridge.step_quantum();
  });
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tickets[static_cast<std::size_t>(t * kPerThread + i)] =
            fx.bridge.submit_request(
                Value::map().set("op", "incr").set("key", "ctr"));
      }
    });
  }
  for (auto& producer : producers) producer.join();

  // Every ticket completes (the sim thread keeps stepping underneath).
  std::vector<std::int64_t> seen_values;
  for (const auto ticket : tickets) {
    const auto reply = await(fx.bridge.completions(), ticket);
    ASSERT_TRUE(reply.has_value()) << "ticket " << ticket;
    ASSERT_TRUE(reply->has("result")) << reply->to_string();
    seen_values.push_back(reply->at("result").at("value").as_int());
  }
  stepping.store(false, std::memory_order_release);
  sim_thread.join();

  // The increments were serialized through the sim: the multiset of counter
  // values is exactly 1..N, every increment applied exactly once.
  std::sort(seen_values.begin(), seen_values.end());
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_EQ(seen_values[static_cast<std::size_t>(i)], i + 1);
  }
  EXPECT_EQ(fx.bridge.injected_total(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(SimBridge, AdaptCommandRunsATransition) {
  BridgeFixture fx;
  const auto ticket = fx.bridge.submit_adapt("LFR");
  std::optional<Value> reply;
  for (int i = 0; i < 2000 && !reply; ++i) {
    fx.bridge.step_quantum();
    reply = fx.bridge.completions().take(ticket);
  }
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->at("ok").as_bool()) << reply->to_string();
  EXPECT_EQ(reply->at("to").as_string(), "LFR");
  EXPECT_EQ(fx.system.engine().current().name, "LFR");
}

TEST(SimBridge, UnknownFtmYieldsAnErrorCompletion) {
  BridgeFixture fx;
  const auto ticket = fx.bridge.submit_adapt("NOPE");
  fx.bridge.step_quantum();
  const auto reply =
      fx.bridge.completions().take(ticket);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->has("error"));
}

TEST(SimBridge, QueueOverflowRejectsAndIsObservable) {
  BridgeOptions options{.speed = 0.0};
  options.queue_capacity = 1;
  BridgeFixture fx(options);

  const auto ticket = fx.bridge.submit_request(
      Value::map().set("op", "get").set("key", "k"));
  EXPECT_NE(ticket, 0u);
  // Second push overflows the one-slot queue: rejected, not queued.
  EXPECT_EQ(fx.bridge.submit_request(
                Value::map().set("op", "get").set("key", "k")),
            0u);
  EXPECT_EQ(fx.bridge.commands().rejected_total(), 1u);

  // A drain frees the slot again.
  fx.bridge.step_quantum();
  EXPECT_NE(fx.bridge.submit_adapt("LFR"), 0u);

  // run(until already reached) publishes a final frame: the rejection rides
  // the status JSON and folds into the gateway.queue.rejected counter.
  (void)fx.bridge.run(fx.system.sim().now());
  EXPECT_NE(fx.bridge.latest_status().find("\"rejected\":1"),
            std::string::npos)
      << "status: " << fx.bridge.latest_status();
  EXPECT_EQ(
      fx.system.sim().metrics().counter("gateway.queue.rejected").value(),
      1u);
}

TEST(SimBridge, RunStopsOnWatchedFlagAndClosesBoard) {
  BridgeFixture fx;
  std::atomic<bool> stop{false};
  fx.bridge.watch_stop_flag(&stop);  // registered before run(), like the tool
  std::thread sim_thread([&] { fx.bridge.run(); });
  const auto ticket = fx.bridge.submit_request(
      Value::map().set("op", "get").set("key", "missing"));
  const auto reply = await(fx.bridge.completions(), ticket);
  ASSERT_TRUE(reply.has_value());
  stop.store(true, std::memory_order_release);
  sim_thread.join();
  // Board is closed after run(): outstanding tickets are final.
  EXPECT_TRUE(fx.bridge.completions().closed());
  EXPECT_FALSE(fx.bridge.completions().take(12345).has_value());
}

}  // namespace
}  // namespace rcs::gateway
