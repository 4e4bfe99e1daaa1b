// The typed call plane between the protocol kernel and its bricks: the
// kernel reaches each brick through a link resolved when the wire is made,
// so a differential transition must still swap the brick the very next
// request uses, every reflective check must keep its error, and only FTM
// bricks may fill a brick slot. Also the bounded early-message stash.
#include <gtest/gtest.h>

#include <string>

#include "duplex_fixture.hpp"
#include "rcs/ftm/script_builder.hpp"

namespace rcs::ftm::testing {
namespace {

using Fixture = DuplexFixture;

/// The message of the ComponentError `fn` throws ("" when it does not).
template <typename Fn>
std::string component_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ComponentError& e) {
    return e.what();
  }
  return "";
}

Value client_request(const sim::Host& client, std::int64_t id, Value request) {
  return Value::map()
      .set("client", static_cast<std::int64_t>(client.id().value()))
      .set("id", id)
      .set("request", std::move(request));
}

TEST_F(Fixture, PbrToLfrTransitionSwapsTheBrickTheNextRequestUses) {
  deploy(FtmConfig::pbr());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_FALSE(roundtrip(kv_incr("ctr")).has("error"));
  }
  EXPECT_EQ(rt0.kernel().counters().checkpoints_sent, 3u);
  EXPECT_EQ(rt0.kernel().counters().notifications, 0u);

  // Quiesce both replicas (idle, so at once), swap the bricks, resume.
  const ScriptBuilder builder(comp::ComponentRegistry::instance());
  const std::string source = builder.transition_script(
      FtmConfig::pbr(), FtmConfig::lfr(), app::spec_for(app::kKvStore));
  for (FtmRuntime* rt : {&rt0, &rt1}) {
    bool drained = false;
    rt->quiesce([&drained] { drained = true; });
    ASSERT_TRUE(drained);
    rt->run_transition(source, FtmConfig::lfr());
    rt->resume();
  }
  EXPECT_EQ(rt0.composite().child("syncAfter").type_name(), brick::kSyncAfterLfr);

  const Value reply = roundtrip(kv_incr("ctr"));
  ASSERT_FALSE(reply.has("error")) << reply.to_string();
  EXPECT_EQ(reply.at("result").at("value").as_int(), 4) << "state carried over";
  sim.run_for(sim::kSecond);
  EXPECT_EQ(rt0.kernel().counters().checkpoints_sent, 3u) << "no PBR brick ran";
  EXPECT_EQ(rt0.kernel().counters().notifications, 1u) << "the LFR brick ran";
  EXPECT_EQ(rt1.kernel().counters().forwarded, 1u) << "the follower got it";
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
}

TEST_F(Fixture, UnwiredBrickSlotThrowsTheSameComponentError) {
  deploy(FtmConfig::tr());
  rt0.composite().stop("syncBefore");
  EXPECT_EQ(component_error_of([&] {
              rt0.composite().invoke("protocol", "client", "request",
                                     client_request(hc, 1, kv_incr("ctr")));
            }),
            "invoke on stopped component 'syncBefore' (ftm.syncBefore.noop), "
            "service 'in'");
  rt0.composite().unwire("protocol", "before");
  EXPECT_EQ(component_error_of([&] {
              rt0.composite().invoke("protocol", "client", "request",
                                     client_request(hc, 2, kv_incr("ctr")));
            }),
            "ftm@replica0: call through unwired reference protocol.before");
}

TEST_F(Fixture, UndeclaredServiceOfTheKernelStillThrows) {
  deploy(FtmConfig::tr());
  EXPECT_THROW(rt0.composite().invoke("protocol", "nosvc", "request", {}),
               ComponentError);
  // The control service takes typed calls only: its string ops are gone.
  EXPECT_THROW(rt0.composite().invoke("protocol", "control", "stats", {}),
               FtmError);
  EXPECT_THROW(rt0.composite().invoke("syncAfter", "in", "after", {}), FtmError);
}

/// A component that provides the syncAfter interface but is no FTM brick.
comp::ComponentTypeInfo not_a_brick_type() {
  return comp::LambdaComponent::make_type(
      "test.notABrick", {{"in", iface::kSyncAfter}}, {},
      [](const std::string&, const std::string&, const Value&) {
        return Value::map();
      });
}

TEST_F(Fixture, NonBrickInABrickSlotIsRejectedAndTheScriptRollsBack) {
  comp::ComponentRegistry::instance().register_type(not_a_brick_type());
  lib0.install_type(comp::ComponentRegistry::instance(), "test.notABrick");
  deploy(FtmConfig::tr());
  const auto wires_before = rt0.composite().wires();
  const auto children_before = rt0.composite().children();

  const std::string source = R"(script bad_swap {
  stop("syncAfter");
  unwire("protocol", "after");
  add("test.notABrick", "fake");
  wire("protocol", "after", "fake", "in");
  start("fake");
})";
  try {
    rt0.run_transition(source, FtmConfig::tr());
    FAIL() << "wiring a non-brick into a brick slot must fail";
  } catch (const ScriptException& e) {
    EXPECT_NE(std::string(e.what()).find("is not an FTM brick"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rt0.composite().wires(), wires_before);
  EXPECT_EQ(rt0.composite().children(), children_before);
  EXPECT_TRUE(rt0.composite().child("syncAfter").started());
  const Value reply = roundtrip(kv_incr("ctr"));
  EXPECT_FALSE(reply.has("error")) << reply.to_string();
}

TEST_F(Fixture, LateDuplicatedNotificationsDoNotLeakIntoTheStash) {
  // Half of the replica-link messages arrive twice. A duplicated notify that
  // reaches the follower after its forwarded context finished can never be
  // consumed; it must not be parked in the stash for good.
  deploy(FtmConfig::lfr());
  sim.network().link(h0.id(), h1.id()).duplicate_rate = 0.5;
  sim.network().link(h1.id(), h0.id()).duplicate_rate = 0.5;
  for (int i = 1; i <= 400; ++i) {
    const Value reply = roundtrip(kv_incr("ctr"));
    ASSERT_FALSE(reply.has("error")) << "request " << i;
  }
  sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(rt1.kernel().in_flight(), 0u);
  EXPECT_EQ(rt1.kernel().stashed(), 0u) << "stale early messages kept";
  EXPECT_LE(rt1.kernel().stashed(), ProtocolKernel::kStashCapacity);
}

}  // namespace
}  // namespace rcs::ftm::testing
