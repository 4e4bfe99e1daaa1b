// The resolved link table behind Component::call: wire/unwire keep one entry
// per declared reference, calls index it, and it must always agree with the
// introspection record (Composite::wires()) and keep every reflective check.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "rcs/common/rng.hpp"
#include "rcs/component/composite.hpp"
#include "test_types.hpp"

namespace rcs::comp {
namespace {

using testing::make_full_registry;

struct LinkFixture : ::testing::Test {
  ComponentRegistry registry = make_full_registry();
  Composite root{"root", {.registry = &registry}};

  /// fwd.next -> echo.svc, everything started.
  void build_forwarder() {
    root.add("test.forwarder", "fwd");
    root.add("test.echo", "echo");
    root.add("test.upper", "upper");
    root.wire("fwd", "next", "echo", "svc");
    root.start("echo");
    root.start("upper");
    root.start("fwd");
  }

  /// The message of the ComponentError `fn` throws ("" when it does not).
  template <typename Fn>
  static std::string error_of(Fn&& fn) {
    try {
      fn();
    } catch (const ComponentError& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(LinkFixture, RewireBetweenTwoCallsReachesTheNewTarget) {
  build_forwarder();
  EXPECT_EQ(root.invoke("fwd", "svc", "x", {}).at("op").as_string(), "x");
  root.unwire("fwd", "next");
  root.wire("fwd", "next", "upper", "svc");
  EXPECT_EQ(root.invoke("fwd", "svc", "x", {}).as_string(), "upper:x");
  root.unwire("fwd", "next");
  root.wire("fwd", "next", "echo", "svc");
  EXPECT_EQ(root.invoke("fwd", "svc", "y", {}).at("op").as_string(), "y");
}

TEST_F(LinkFixture, UnwiredReferenceThrowsTheSameError) {
  build_forwarder();
  root.unwire("fwd", "next");
  EXPECT_EQ(error_of([&] { root.invoke("fwd", "svc", "x", {}); }),
            "root: call through unwired reference fwd.next");
}

TEST_F(LinkFixture, StoppedTargetThrowsTheSameError) {
  build_forwarder();
  root.stop("echo");
  EXPECT_EQ(error_of([&] { root.invoke("fwd", "svc", "x", {}); }),
            "invoke on stopped component 'echo' (test.echo), service 'svc'");
}

/// A component that calls a reference it does not declare.
class StrayCaller : public Component {
 public:
  static ComponentTypeInfo type_info() {
    ComponentTypeInfo info;
    info.type_name = "test.stray";
    info.services = {{"svc", "I.Echo"}};
    info.factory = [] { return std::make_unique<StrayCaller>(); };
    return info;
  }

 protected:
  Value on_invoke(const std::string&, const std::string& op,
                  const Value& args) override {
    return call("undeclared", op, args);
  }
};

TEST_F(LinkFixture, UndeclaredReferenceAndServiceThrowTheSameErrors) {
  registry.register_type(StrayCaller::type_info());
  root.add("test.stray", "stray");
  root.start("stray");
  EXPECT_EQ(error_of([&] { root.invoke("stray", "svc", "x", {}); }),
            "root: 'stray' (test.stray) has no reference 'undeclared'");
  EXPECT_EQ(error_of([&] { root.invoke("stray", "nosvc", "x", {}); }),
            "component 'stray' (test.stray) does not provide service 'nosvc'");
}

TEST_F(LinkFixture, RemoveAfterUnwireLeavesNoDanglingLink) {
  build_forwarder();
  root.stop("echo");
  root.unwire("fwd", "next");
  root.remove("echo");
  // The removed component's memory is gone; the link must be too (the
  // sanitizer build turns a stale pointer into a use-after-free report).
  EXPECT_EQ(root.child("fwd").link(0).target, nullptr);
  EXPECT_EQ(error_of([&] { root.invoke("fwd", "svc", "x", {}); }),
            "root: call through unwired reference fwd.next");
  root.add("test.echo", "echo");
  root.start("echo");
  root.wire("fwd", "next", "echo", "svc");
  EXPECT_EQ(root.invoke("fwd", "svc", "z", {}).at("op").as_string(), "z");
}

/// Rebuild the wire list from the link tables alone.
std::vector<WireInfo> wires_from_links(const Composite& root) {
  std::vector<WireInfo> wires;
  for (const auto& name : root.children()) {
    const Component& c = root.child(name);
    std::map<std::string, WireInfo> by_reference;  // wires() orders by name
    for (std::size_t i = 0; i < c.info().references.size(); ++i) {
      const Component::Link& link = c.link(i);
      if (link.target == nullptr) continue;
      const std::string& reference = c.info().references[i].name;
      by_reference[reference] =
          WireInfo{name, reference, link.target->name(), *link.service};
    }
    for (auto& [_, wire] : by_reference) wires.push_back(std::move(wire));
  }
  return wires;
}

TEST_F(LinkFixture, SeededWireUnwireSequenceKeepsLinksInStepWithWires) {
  const std::vector<std::string> sources = {"f0", "f1", "f2", "o0", "o1"};
  const std::vector<std::string> targets = {"e0", "e1", "u0"};
  for (const auto* name : {"f0", "f1", "f2"}) root.add("test.forwarder", name);
  for (const auto* name : {"o0", "o1"}) root.add("test.optional", name);
  for (const auto* name : {"e0", "e1"}) root.add("test.echo", name);
  root.add("test.upper", "u0");

  Rng rng(2024);
  int wired = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto& from = sources[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
    const char* reference = from[0] == 'f' ? "next" : "maybe";
    if (root.is_wired(from, reference)) {
      root.unwire(from, reference);
      --wired;
    } else {
      const auto& to = targets[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
      root.wire(from, reference, to, "svc");
      ++wired;
    }
    ASSERT_EQ(wires_from_links(root), root.wires()) << "step " << step;
    ASSERT_EQ(static_cast<int>(root.wires().size()), wired);
  }
}

/// Refuses any target on its reference unless the target is an Echo-typed
/// LambdaComponent — stands in for the FTM kernel's brick-slot check.
class PickyCaller : public Component {
 public:
  static ComponentTypeInfo type_info() {
    ComponentTypeInfo info;
    info.type_name = "test.picky";
    info.services = {{"svc", "I.Echo"}};
    info.references = {{"next", "I.Echo"}};
    info.factory = [] { return std::make_unique<PickyCaller>(); };
    return info;
  }

 protected:
  Value on_invoke(const std::string&, const std::string& op,
                  const Value& args) override {
    return call("next", op, args);
  }
  void on_wire(std::size_t index, const Component& target) override {
    require_target<LambdaComponent>(index, target, "a lambda component");
  }
};

TEST_F(LinkFixture, OnWireRefusalLeavesNoWireAndNoLink) {
  registry.register_type(PickyCaller::type_info());
  root.add("test.picky", "picky");
  root.add("test.forwarder", "fwd");
  EXPECT_EQ(error_of([&] { root.wire("picky", "next", "fwd", "svc"); }),
            "root: cannot wire picky.next to 'fwd' (test.forwarder): it is "
            "not a lambda component");
  EXPECT_FALSE(root.is_wired("picky", "next"));
  EXPECT_EQ(root.child("picky").link(0).target, nullptr);
  root.add("test.echo", "echo");
  EXPECT_NO_THROW(root.wire("picky", "next", "echo", "svc"));
  EXPECT_EQ(root.child("picky").link(0).target, &root.child("echo"));
}

}  // namespace
}  // namespace rcs::comp
