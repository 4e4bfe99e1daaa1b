// Targeted tests for the protocol kernel's hairier paths: message
// reordering (stash), abort-overtakes-forward, deferred exec requests,
// duplicate suppression of in-flight requests, peer-down completion of
// parked contexts, and quiescence interaction with forwarded traffic.
#include <gtest/gtest.h>

#include "duplex_fixture.hpp"

namespace rcs::ftm::testing {
namespace {

using Fixture = DuplexFixture;

TEST_F(Fixture, DuplicateWhileInFlightIsSuppressed) {
  deploy(FtmConfig::pbr());
  // First copy starts processing (compute takes 5ms); a duplicate arriving
  // mid-flight must neither restart the pipeline nor produce two replies.
  Value payload = Value::map();
  payload.set("client", static_cast<std::int64_t>(hc.id().value()))
      .set("id", 77)
      .set("request", kv_incr("ctr"));
  hc.send(h0.id(), msg::kRequest, payload);
  sim.run_for(3 * sim::kMillisecond);
  ASSERT_EQ(rt0.kernel().in_flight(), 1u);
  hc.send(h0.id(), msg::kRequest, payload);  // duplicate, still in flight
  sim.run_for(2 * sim::kSecond);

  const Value got = roundtrip(kv_get("ctr"));
  EXPECT_EQ(got.at("result").at("value").as_int(), 1) << "executed once";
  EXPECT_EQ(rt0.kernel().counters().replies, 2u)
      << "one live reply + one final reply for the probe";
}

TEST_F(Fixture, AbortOvertakingForwardIsRemembered) {
  deploy(FtmConfig::lfr());
  // Simulate the reordered-wire case directly: the abort for a key arrives
  // at the follower BEFORE the forwarded request.
  Value abort = Value::map();
  abort.set("phase", "ctrl").set("kind", "abort")
      .set("data", Value::map().set("key", "c9:5"));
  h0.send(h1.id(), msg::kReplica, std::move(abort));
  sim.run_for(10 * sim::kMillisecond);

  Value forward = Value::map();
  forward.set("phase", "before").set("kind", "request").set("key", "c9:5");
  forward.set("data", Value::map()
                          .set("key", "c9:5")
                          .set("client", 9)
                          .set("id", 5)
                          .set("request", kv_incr("ctr")));
  h0.send(h1.id(), msg::kReplica, std::move(forward));
  sim.run_for(2 * sim::kSecond);

  EXPECT_EQ(rt1.kernel().in_flight(), 0u) << "aborted forward never started";
  // The follower state must not contain the aborted increment.
  const Value state = rt1.composite().invoke("server", "state", "get", {});
  EXPECT_FALSE(state.at("entries").has("ctr"));
}

TEST_F(Fixture, LateNotifyAfterAbortedForwardDoesNotCrash) {
  deploy(FtmConfig::lfr());
  Value notify = Value::map();
  notify.set("phase", "after").set("kind", "notify").set("key", "c9:9");
  notify.set("data", Value::map().set("key", "c9:9").set("digest", 123));
  h0.send(h1.id(), msg::kReplica, std::move(notify));
  EXPECT_NO_THROW(sim.run_for(sim::kSecond));
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
}

TEST_F(Fixture, FailedLeaderRequestAbortsFollowerContext) {
  // LFR⊕TR + nondeterministic app: every leader execution fails (no
  // majority); the follower's forwarded contexts must be cleaned up.
  deploy(FtmConfig::lfr_tr(), app::kSensor);
  Value reply;
  client.send(Value::map().set("op", "read").set("target", 40.0),
              [&](const Value& r) { reply = r; });
  sim.run_for(5 * sim::kSecond);
  ASSERT_TRUE(reply.is_map());
  EXPECT_TRUE(reply.has("error"));
  EXPECT_EQ(rt1.kernel().in_flight(), 0u)
      << "follower context for the failed request leaked";
}

TEST_F(Fixture, QuiesceDrainsDespiteFailingRequests) {
  deploy(FtmConfig::lfr_tr());
  h0.faults().permanent = true;  // every request fails with no-majority
  for (int i = 0; i < 3; ++i) {
    const Value reply = roundtrip(kv_incr("k"), 20 * sim::kSecond);
    EXPECT_TRUE(reply.has("error"));
  }
  bool drained0 = false, drained1 = false;
  rt0.quiesce([&] { drained0 = true; });
  rt1.quiesce([&] { drained1 = true; });
  sim.run_for(2 * sim::kSecond);
  EXPECT_TRUE(drained0);
  EXPECT_TRUE(drained1) << "orphaned forwarded contexts block quiescence";
  rt0.resume();
  rt1.resume();
}

TEST_F(Fixture, ExecRequestRacingLocalExecutionIsDeferred) {
  deploy(FtmConfig::a_lfr());
  h0.faults().permanent = true;
  // Three requests: each forces leader assert-failure -> exec_req to the
  // follower while the follower may still be computing the same request.
  for (int i = 1; i <= 3; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 20 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << reply.to_string();
    EXPECT_EQ(reply.at("result").at("value").as_int(), i)
        << "deferred exec answered from the single local execution";
  }
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
}

TEST_F(Fixture, PeerDownCompletesParkedCheckpointWait) {
  deploy(FtmConfig::pbr());
  // Kill the backup while a request is between checkpoint and ack.
  Value reply;
  client.send(kv_incr("ctr"), [&](const Value& r) { reply = r; });
  sim.run_for(6 * sim::kMillisecond);  // compute done, checkpoint in flight
  h1.crash();
  sim.run_for(2 * sim::kSecond);
  ASSERT_TRUE(reply.is_map()) << "request parked forever on a dead peer";
  EXPECT_FALSE(reply.has("error"));
  EXPECT_EQ(rt0.kernel().role(), Role::kAlone);
}

TEST_F(Fixture, StashedNotifyIsConsumedOncePerKey) {
  deploy(FtmConfig::lfr());
  for (int i = 0; i < 5; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"));
    ASSERT_FALSE(reply.has("error"));
  }
  // The leader replies to the client in parallel with the follower's
  // notification; give the follower's last context time to consume it.
  sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(rt1.kernel().counters().forwarded, 5u);
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
  EXPECT_EQ(rt1.kernel().counters().divergences, 0u);
}

TEST_F(Fixture, PromotionMidPipelineServesBufferedClient) {
  deploy(FtmConfig::pbr());
  // Client request arrives at the backup while the primary is alive: it is
  // ignored; after promotion the SAME id must be served.
  Value payload = Value::map();
  payload.set("client", static_cast<std::int64_t>(hc.id().value()))
      .set("id", 500)
      .set("request", kv_incr("ctr"));
  hc.send(h1.id(), msg::kRequest, payload);
  sim.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(rt1.kernel().counters().replies, 0u);

  h0.crash();
  sim.run_for(sim::kSecond);  // failure detector promotes the backup
  ASSERT_EQ(rt1.kernel().role(), Role::kAlone);
  hc.send(h1.id(), msg::kRequest, payload);
  sim.run_for(sim::kSecond);
  EXPECT_EQ(rt1.kernel().counters().replies, 1u);
}

TEST_F(Fixture, PbrSurvivesLossyReplicaLink) {
  // A dropped checkpoint or ack must not wedge the pipeline: the waiting
  // phase retransmits until the peer answers (bounded by the failure
  // detector). 10% message loss on the replica link, sequential workload.
  deploy(FtmConfig::pbr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.10;
  for (int i = 1; i <= 20; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 30 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
    ASSERT_EQ(reply.at("result").at("value").as_int(), i)
        << "retransmission executed a checkpointed request twice";
  }
  EXPECT_EQ(rt0.kernel().in_flight(), 0u);
}

TEST_F(Fixture, AssertRecoverySurvivesLossyReplicaLink) {
  // exec_req / exec_result can be lost too; the assert-recovery path must
  // retransmit rather than park forever.
  deploy(FtmConfig::a_pbr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.10;
  h0.faults().permanent = true;
  for (int i = 1; i <= 10; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 60 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
    ASSERT_EQ(reply.at("result").at("value").as_int(), i);
  }
}

TEST_F(Fixture, LfrFollowerGivesUpOnLostNotification) {
  // The LFR notification is fire-and-forget; when it is lost the follower
  // must not hold its forwarded context (and quiescence) hostage.
  deploy(FtmConfig::lfr());
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.25;
  for (int i = 1; i <= 15; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"), 60 * sim::kSecond);
    ASSERT_FALSE(reply.has("error")) << "request " << i;
  }
  sim.network().link(h0.id(), h1.id()).drop_rate = 0.0;
  sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(rt1.kernel().in_flight(), 0u)
      << "follower contexts leaked on lost notifications";
}

TEST_F(Fixture, CountersExposedThroughControlStats) {
  deploy(FtmConfig::pbr());
  (void)roundtrip(kv_incr("ctr"));
  const auto& counters = rt0.kernel().counters();
  EXPECT_EQ(counters.replies, 1u);
  EXPECT_EQ(counters.checkpoints_sent, 1u);
  EXPECT_EQ(counters.promotions, 0u);
}

}  // namespace
}  // namespace rcs::ftm::testing
