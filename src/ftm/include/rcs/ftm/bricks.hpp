// Variable-feature bricks of the Before-Proceed-After scheme (§4, Table 2).
//
// Each brick is a small *stateless* component filling one slot of the FTM
// composite; differential transitions replace exactly these (§5.2). Brick
// protocol (driven by the kernel, typed; see protocol.hpp):
//   before / proceed / after (by slot)   (const RequestCtx&) -> Directive
//   on_peer                (const RequestCtx* ctx or null, message) -> Directive
//   make_join_snapshot / apply_join_snapshot   (syncAfter: replica rejoin)
// On group-membership changes and retransmission timeouts the kernel simply
// re-runs the waiting phase (the ctx carries `attempt`), so bricks stay
// stateless. Bricks reach the kernel through their `control` link and the
// reply log through their `replyLog` link; both are type-checked when the
// wire is made, and the kernel admits only FtmBricks into its slots.
//
//   FTM slot content (Table 2):
//     PBR  primary:  -            / compute / checkpoint to backup
//     PBR  backup:   -            / -       / process checkpoint
//     LFR  leader:   forward req  / compute / notify follower
//     LFR  follower: receive req  / compute / process notification
//     TR:            capture state/ compute x2(+1), compare / restore state
//     A&Duplex:      -            / compute / assert output (+ re-exec on peer)
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/ftm/protocol.hpp"
#include "rcs/ftm/reply_log.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

/// Base of every brick. Bricks keep NO per-request state: everything flows
/// through the RequestCtx and the kernel's stash.
class FtmBrick : public comp::Component {
 public:
  /// The phase calls; a brick overrides the one its slot runs.
  virtual Directive before(const RequestCtx&) { return no_phase("before"); }
  virtual Directive proceed(const RequestCtx&) { return no_phase("proceed"); }
  virtual Directive after(const RequestCtx&) { return no_phase("after"); }
  /// A peer message: solicited (ctx = the context that waited for it) or
  /// unsolicited (ctx = null; only stash / defer are read back).
  virtual Directive on_peer(const RequestCtx* /*ctx*/, const Value& /*message*/) {
    return {};
  }
  /// Replica rejoin (syncAfter): the master's snapshot for a joiner, and its
  /// application on the joiner.
  virtual Value make_join_snapshot() { return Value::map(); }
  virtual void apply_join_snapshot(const Value& /*snapshot*/) {}

 protected:
  /// Bricks take typed calls only.
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& /*args*/) final {
    throw FtmError(strf(type_name(), ": bricks take typed calls only (",
                        service, ".", op, ")"));
  }
  /// Admits only a protocol kernel on the control reference and only a
  /// reply log on a reply-log reference.
  void on_wire(std::size_t index, const comp::Component& target) override {
    const std::string& interface_name = info().references[index].interface_name;
    if (interface_name == iface::kProtocolControl) {
      require_target<ProtocolKernel>(index, target, "a protocol kernel");
      control_ref_ = index;
    } else if (interface_name == iface::kReplyLog) {
      require_target<ReplyLogComponent>(index, target, "a reply log");
      reply_log_ref_ = index;
    }
  }

  // --- Directives ------------------------------------------------------------
  [[nodiscard]] static Directive done() { return {}; }
  [[nodiscard]] static Directive done_with(Value result) {
    return make(Verdict::kDone, std::move(result));
  }
  /// Wait for a peer message of `kind` (empty = wait for resume_after).
  [[nodiscard]] static Directive wait_for(std::string_view kind) {
    return wait_for_group(kind, 1);
  }
  /// Wait for `count` matching peer messages, one per group member
  /// (checkpoint acks from N backups). count <= 0 completes immediately.
  [[nodiscard]] static Directive wait_for_group(std::string_view kind, int count) {
    Directive directive = make(Verdict::kWait);
    directive.expect = kind;
    directive.expect_count = count;
    return directive;
  }
  [[nodiscard]] static Directive again_with(Value result) {
    return make(Verdict::kAgain, std::move(result));
  }
  [[nodiscard]] static Directive fail_with(std::string error) {
    Directive directive = make(Verdict::kFail);
    directive.error = std::move(error);
    return directive;
  }
  [[nodiscard]] static Directive stash_directive() {
    Directive directive;
    directive.stash = true;
    return directive;
  }
  /// Ask the kernel to replay this unsolicited message once the local
  /// pipeline for its key has finished.
  [[nodiscard]] static Directive defer_directive() {
    Directive directive;
    directive.defer = true;
    return directive;
  }

  // --- Linked components -----------------------------------------------------
  /// The kernel's typed control interface, through the control link.
  [[nodiscard]] ProtocolKernel& kernel() const {
    return linked<ProtocolKernel>(control_ref_);
  }
  /// The reply log, through the replyLog link.
  [[nodiscard]] ReplyLogComponent& reply_log() const {
    return linked<ReplyLogComponent>(reply_log_ref_);
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

  /// Record an instant event on this brick's host. No-op when tracing() is
  /// false (or the brick runs hostless in a unit test).
  void trace_instant(std::string_view name, std::uint64_t trace,
                     std::int64_t arg = 0) {
    if (!tracing()) return;
    obs::Tracer& tracer = host()->sim().tracer();
    tracer.instant(host()->id().value(), tracer.intern(name), trace,
                   host()->sim().now(), arg);
  }

 private:
  [[nodiscard]] static Directive make(Verdict verdict,
                                      std::optional<Value> result = {}) {
    Directive directive;
    directive.verdict = verdict;
    directive.result = std::move(result);
    return directive;
  }
  [[noreturn]] Directive no_phase(const char* phase) const {
    throw FtmError(strf(type_name(), ": brick does not run the ", phase, " phase"));
  }

  // Positions of the control and replyLog references, found by on_wire.
  std::size_t control_ref_{comp::Component::kNoReference};
  std::size_t reply_log_ref_{comp::Component::kNoReference};
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
