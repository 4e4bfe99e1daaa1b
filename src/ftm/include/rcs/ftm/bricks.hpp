// Variable-feature bricks of the Before-Proceed-After scheme (§4, Table 2).
//
// Each brick is a small *stateless* component filling one slot of the FTM
// composite; differential transitions replace exactly these (§5.2). Brick
// protocol (driven by the kernel):
//   op "before"/"process"/"after" (by slot)  args: ctx view
//   op "on_peer"       args: {ctx: view|null, message}
// returning a status directive map — see protocol.hpp. On group-membership
// changes and retransmission timeouts the kernel simply re-runs the waiting
// phase (ctx carries "attempt"), so bricks stay stateless.
//
//   FTM slot content (Table 2):
//     PBR  primary:  -            / compute / checkpoint to backup
//     PBR  backup:   -            / -       / process checkpoint
//     LFR  leader:   forward req  / compute / notify follower
//     LFR  follower: receive req  / compute / process notification
//     TR:            capture state/ compute x2(+1), compare / restore state
//     A&Duplex:      -            / compute / assert output (+ re-exec on peer)
#pragma once

#include <string>

#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

/// Common helpers for brick implementations. Bricks keep NO per-request
/// state: everything flows through the ctx view and the kernel's stash.
class FtmBrick : public comp::Component {
 protected:
  // --- Status directives ---------------------------------------------------
  [[nodiscard]] static Value done() {
    return Value::map().set("status", "done");
  }
  [[nodiscard]] static Value done_with(Value result) {
    return Value::map().set("status", "done").set("result", std::move(result));
  }
  /// Wait for a peer message of `kind` (empty = wait for control.resume).
  [[nodiscard]] static Value wait_for(const std::string& kind) {
    return Value::map().set("status", "wait").set("expect", kind);
  }
  /// Wait for `count` matching peer messages, one per group member
  /// (checkpoint acks from N backups). count <= 0 completes immediately.
  [[nodiscard]] static Value wait_for_group(const std::string& kind, int count) {
    return Value::map()
        .set("status", "wait")
        .set("expect", kind)
        .set("expect_count", count);
  }
  [[nodiscard]] static Value again_with(Value result) {
    return Value::map().set("status", "again").set("result", std::move(result));
  }
  [[nodiscard]] static Value fail_with(const std::string& error) {
    return Value::map().set("status", "fail").set("error", error);
  }
  [[nodiscard]] static Value stash_directive() {
    return Value::map().set("stash", true);
  }
  /// Ask the kernel to replay this unsolicited message once the local
  /// pipeline for its key has finished.
  [[nodiscard]] static Value defer_directive() {
    return Value::map().set("defer", true);
  }

  // --- Kernel access through the control reference -------------------------
  [[nodiscard]] Value kernel_info() { return call("control", "info"); }
  [[nodiscard]] bool is_master(const Value& ctx) const {
    const auto& role = ctx.at("role").as_string();
    return role == "primary" || role == "alone";
  }
  [[nodiscard]] static bool peer_available(const Value& ctx) {
    return ctx.at("peer_alive").as_bool() && ctx.at("role").as_string() != "alone";
  }

  void send_peer(const std::string& phase, const std::string& kind, Value data) {
    Value args = Value::map();
    args.set("phase", phase).set("kind", kind).set("data", std::move(data));
    call("control", "send_peer", args);
  }

  void send_peer_to(std::int64_t host, const std::string& phase,
                    const std::string& kind, Value data) {
    Value args = Value::map();
    args.set("host", host)
        .set("phase", phase)
        .set("kind", kind)
        .set("data", std::move(data));
    call("control", "send_peer_to", args);
  }

  /// Live members of the replica group, from the kernel.
  [[nodiscard]] std::vector<std::int64_t> alive_peers() {
    // Materialize the info map first: iterating a reference obtained through
    // a call chain on a temporary would dangle.
    const Value info = kernel_info();
    std::vector<std::int64_t> peers;
    for (const auto& entry : info.at("alive_peers").as_list()) {
      peers.push_back(entry.as_int());
    }
    return peers;
  }

  void report_fault(const std::string& kind) {
    call("control", "report_fault", Value::map().set("kind", kind));
  }

  void count_event(const std::string& kind) {
    call("control", "count_event", Value::map().set("kind", kind));
  }

  void resume_after(const std::string& key, std::int64_t delay_us, Value result) {
    Value args = Value::map();
    args.set("key", key).set("delay_us", delay_us).set("result", std::move(result));
    call("control", "resume_after", args);
  }

  /// Run the application once through the server reference; returns the
  /// {"result", "cpu_us"} pair produced by the server component.
  [[nodiscard]] Value run_server(const Value& request) {
    return call("server", "process", Value::map().set("request", request));
  }

  /// Content digest for result comparison (LFR notification, TR votes).
  [[nodiscard]] static std::int64_t digest(const Value& value) {
    return static_cast<std::int64_t>(value.digest());
  }

  // --- Fault simulation -----------------------------------------------------
  /// The simulation's fault-simulation registry when it is enabled, else
  /// nullptr (disabled, or the brick runs hostless in a unit test). Callers
  /// gate any parameter computation (payload sizes) behind this so the
  /// uninstrumented path stays free of extra work.
  [[nodiscard]] fsim::Registry* fsim_registry() const {
    if (host() == nullptr) return nullptr;
    fsim::Registry& registry = host()->sim().fsim();
    return registry.enabled() ? &registry : nullptr;
  }

  /// Virtual time for fsim Site stamps (0 when hostless).
  [[nodiscard]] std::int64_t fsim_now() const {
    return host() != nullptr ? host()->sim().now() : 0;
  }

  // --- Observability --------------------------------------------------------
  /// True when this brick runs on a host whose simulation records traces.
  /// Callers gate any argument computation (payload sizes) behind this so
  /// the untraced path stays free of extra work.
  [[nodiscard]] bool tracing() const {
    return host() != nullptr && host()->sim().tracer().enabled();
  }

  /// Trace id carried by a ctx view (0 when untraced or ctx is null).
  [[nodiscard]] static std::uint64_t trace_of(const Value& ctx) {
    if (!ctx.is_map() || !ctx.has("trace")) return 0;
    return static_cast<std::uint64_t>(ctx.at("trace").as_int());
  }

  /// Record an instant event on this brick's host. No-op when tracing() is
  /// false (or the brick runs hostless in a unit test).
  void trace_instant(std::string_view name, std::uint64_t trace,
                     std::int64_t arg = 0) {
    if (!tracing()) return;
    obs::Tracer& tracer = host()->sim().tracer();
    tracer.instant(host()->id().value(), tracer.intern(name), trace,
                   host()->sim().now(), arg);
  }
};

/// Component type registrations for every brick.
[[nodiscard]] comp::ComponentTypeInfo sync_before_noop_type();
[[nodiscard]] comp::ComponentTypeInfo sync_before_lfr_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_compute_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_tr_type();
[[nodiscard]] comp::ComponentTypeInfo proceed_rb_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_noop_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_pbr_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_lfr_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_pbr_assert_type();
[[nodiscard]] comp::ComponentTypeInfo sync_after_lfr_assert_type();

}  // namespace rcs::ftm
