#include "rcs/ftm/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/ftm/bricks.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/reply_log.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

namespace {
/// "c<client>:<id>"; runs at every request start on every replica, so it
/// formats with to_chars instead of an ostringstream.
std::string request_key(std::int64_t client, std::uint64_t id) {
  char digits[20];  // the longest int64 ("-9223372036854775808") or uint64
  std::string key = "c";
  key.append(digits, std::to_chars(std::begin(digits), std::end(digits), client).ptr);
  key += ':';
  key.append(digits, std::to_chars(std::begin(digits), std::end(digits), id).ptr);
  return key;
}
}  // namespace

const char* to_string(Fault fault) {
  static constexpr const char* kNames[] = {
      "divergence",        "assertion_failed",       "tr_mismatch",
      "tr_no_majority",    "acceptance_failed",      "both_variants_rejected",
      "both_replicas_faulty"};
  return kNames[static_cast<std::size_t>(fault)];
}

comp::ComponentTypeInfo ProtocolKernel::type_info() {
  comp::ComponentTypeInfo info;
  info.type_name = kernel::kProtocol;
  info.description =
      "fault tolerance protocol kernel: pipeline, at-most-once, failover "
      "(common part)";
  info.category = comp::TypeCategory::kKernel;
  info.services = {{"client", iface::kClientPort},
                   {"peer", iface::kPeerPort},
                   {"control", iface::kProtocolControl}};
  info.references = {{"before", iface::kSyncBefore},
                     {"exec", iface::kProceed},
                     {"after", iface::kSyncAfter},
                     {"replyLog", iface::kReplyLog},
                     {"detector", iface::kFailureDetector, /*required=*/false}};
  info.default_properties.set("role", "primary")
      .set("peers", Value::list())
      .set("master", std::int64_t{-1})
      .set("ftm", "unconfigured")
      .set("retry_us", std::int64_t{250 * sim::kMillisecond});
  info.code_size = 64'000;
  info.source_file = "src/ftm/protocol.cpp";
  info.factory = [] { return std::make_unique<ProtocolKernel>(); };
  return info;
}

ProtocolKernel::~ProtocolKernel() {
  if (host() != nullptr) {
    for (const auto& [id, resume] : resume_timers_) host()->cancel(resume.timer);
    for (const auto& [key, ctx] : pending_) host()->cancel(ctx.retry_timer);
  }
}

sim::Duration ProtocolKernel::retry_interval() const {
  const Value v = property("retry_us");
  return v.is_int() && v.as_int() > 0 ? v.as_int() : 250 * sim::kMillisecond;
}

void ProtocolKernel::schedule_peer_retry(Ctx& ctx) {
  if (host() == nullptr) return;
  sim::Duration interval = retry_interval();
  if (host()->sim().fsim().enabled()) {
    // fsim "timer.arm": the retry timer mis-arms (a lost tick). The retry
    // still fires — one interval late — so the failure is masked as added
    // latency, never as a lost retransmission.
    const fsim::Site site{"peer_retry", 0,
                          static_cast<std::int64_t>(host()->sim().now())};
    if (host()->sim().fsim().should_fail(fsim::Point::kTimerArm, site)) {
      interval *= 2;
    }
  }
  ctx.retry_timer = host()->schedule_after(
      interval, [this, key = ctx.req.key] { on_peer_retry(key); },
      "ftm.peer_retry");
}

void ProtocolKernel::cancel_peer_retry(Ctx& ctx) {
  if (host() != nullptr) host()->cancel(ctx.retry_timer);
  ctx.retry_timer = TimerId{};
}

void ProtocolKernel::on_peer_retry(const std::string& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Ctx& ctx = it->second;
  if (!ctx.waiting || ctx.req.expect.empty()) return;
  // Re-run the waiting phase: the brick re-sends its peer message (a lost
  // checkpoint/exec request) or decides to give up (ctx carries "attempt").
  ++ctx.req.attempt;
  log().debug("ftm", composite()->name(), ": retrying ", ctx.req.key, " phase ",
              ctx.phase, " (attempt ", ctx.req.attempt, ")");
  ctx.waiting = false;
  apply(ctx, call_phase(ctx));
}

Value ProtocolKernel::on_invoke(const std::string& service,
                                const std::string& op, const Value& args) {
  if (service == "client" && op == "request") {
    handle_client_request(args);
    return {};
  }
  if (service == "peer" && op == "message") {
    handle_peer_message(args);
    return {};
  }
  throw FtmError(strf("protocol.", service, ": unknown op '", op, "'"));
}

void ProtocolKernel::on_wire(std::size_t index, const comp::Component& target) {
  if (index <= kAfterRef) {
    require_target<FtmBrick>(index, target, "an FTM brick");
  } else if (index == kReplyLogRef) {
    require_target<ReplyLogComponent>(index, target, "a reply log");
  }
}

FtmBrick& ProtocolKernel::brick(int phase) const {
  return linked<FtmBrick>(static_cast<std::size_t>(phase));
}

ReplyLogComponent& ProtocolKernel::reply_log() const {
  return linked<ReplyLogComponent>(kReplyLogRef);
}

std::int64_t ProtocolKernel::master() const { return property("master").as_int(); }

void ProtocolKernel::on_start() {
  bind_observability();
  rebuild_peer_group();
}

void ProtocolKernel::bind_observability() {
  if (host() == nullptr) return;
  sim::Simulation& sim = host()->sim();
  tracer_ = &sim.tracer();
  phase_span_names_[0] = tracer_->intern("ftm.before");
  phase_span_names_[1] = tracer_->intern("ftm.proceed");
  phase_span_names_[2] = tracer_->intern("ftm.after");
  promote_span_name_ = tracer_->intern("ftm.promote");
  rejoin_span_name_ = tracer_->intern("ftm.rejoin");
  // Rebind the counter block into the registry, scoped per host. A fresh
  // kernel instance (redeploy, differential transition) re-seeds its cells
  // from zero, so counters keep their per-instance semantics while living
  // in one registry.
  obs::MetricsRegistry& metrics = sim.metrics();
  const auto bind = [&](obs::Counter& counter, const char* name) {
    counter.bind(metrics.counter_cell(strf("ftm.", name, "@", host()->name())));
  };
  bind(counters_.requests, "requests");
  bind(counters_.replies, "replies");
  bind(counters_.error_replies, "error_replies");
  bind(counters_.duplicates_served, "duplicates_served");
  bind(counters_.forwarded, "forwarded");
  bind(counters_.checkpoints_sent, "checkpoints_sent");
  bind(counters_.checkpoints_applied, "checkpoints_applied");
  bind(counters_.deltas_sent, "deltas_sent");
  bind(counters_.full_checkpoints_sent, "full_checkpoints_sent");
  bind(counters_.resyncs, "resyncs");
  bind(counters_.notifications, "notifications");
  bind(counters_.divergences, "divergences");
  bind(counters_.assertion_failures, "assertion_failures");
  bind(counters_.tr_mismatches, "tr_mismatches");
  bind(counters_.promotions, "promotions");
  bind(counters_.buffered, "buffered");
}

void ProtocolKernel::advance_phase(Ctx& ctx) {
  if (tracer_ != nullptr && tracer_->enabled() && ctx.phase < 3) {
    const sim::Time now = host()->sim().now();
    tracer_->span(host()->id().value(), phase_span_names_[ctx.phase],
                  ctx.req.trace, ctx.phase_start, now);
    ctx.phase_start = now;
  }
  ++ctx.phase;
}

void ProtocolKernel::rebuild_peer_group() {
  peers_.clear();
  const Value peers = property("peers");
  if (peers.is_list()) {
    for (const auto& entry : peers.as_list()) peers_.push_back(entry.as_int());
  }
  // Liveness: keep existing knowledge, default new members to alive.
  for (const auto peer : peers_) {
    peer_alive_map_.emplace(peer, true);
  }
  refresh_alive_peers();
}

void ProtocolKernel::refresh_alive_peers() {
  alive_peers_.clear();
  for (const auto peer : peers_) {
    const auto it = peer_alive_map_.find(peer);
    if (it != peer_alive_map_.end() && it->second) alive_peers_.push_back(peer);
  }
}

void ProtocolKernel::on_property_changed(const std::string& key) {
  if (key == "peers") rebuild_peer_group();
  if (key == "role") {
    const Role new_role = role_from_string(property("role").as_string());
    if (new_role != role_) {
      role_ = new_role;
      log().info("ftm", composite()->name(), ": role is now ", to_string(role_));
      if (role_listener_) role_listener_(role_);
    }
  }
}

// ---------------------------------------------------------------------------
// Client path
// ---------------------------------------------------------------------------

void ProtocolKernel::handle_client_request(const Value& payload) {
  ++counters_.requests;
  // A backup ignores direct client traffic; the client's retry lands on the
  // master (or on us once the failure detector promotes us).
  if (role_ == Role::kBackup) return;
  if (blocked_) {
    buffered_requests_.push_back(payload);
    counters_.buffered = std::max<std::uint64_t>(counters_.buffered, buffered());
    return;
  }
  start_request(payload, /*forwarded=*/false);
}

void ProtocolKernel::start_request(const Value& payload, bool forwarded) {
  const auto client = payload.at("client").as_int();
  const auto id = static_cast<std::uint64_t>(payload.at("id").as_int());
  std::string key = request_key(client, id);

  if (pending_.contains(key)) return;  // already in flight

  if (forwarded) {
    const auto aborted =
        std::find(aborted_keys_.begin(), aborted_keys_.end(), key);
    if (aborted != aborted_keys_.end()) {
      aborted_keys_.erase(aborted);
      return;  // the master already failed this request
    }
  }

  // At-most-once: answer retransmissions from the reply log.
  if (const Value* logged = reply_log().lookup(key)) {
    ++counters_.duplicates_served;
    if (!forwarded) {
      Value reply = *logged;
      reply.set("id", static_cast<std::int64_t>(id));
      if (host() != nullptr) {
        host()->send(HostId{static_cast<std::uint32_t>(client)}, msg::kReply,
                     std::move(reply));
      }
      ++counters_.replies;
    }
    return;
  }

  Ctx ctx;
  ctx.req.key = key;
  ctx.req.client = client;
  ctx.req.id = id;
  ctx.req.request = payload.at("request");
  ctx.req.forwarded = forwarded;
  if (tracer_ != nullptr && tracer_->enabled()) {
    ctx.req.trace =
        static_cast<std::uint64_t>(payload.get_or("trace", Value(0)).as_int());
    ctx.phase_start = host()->sim().now();
  }
  auto [it, inserted] = pending_.emplace(std::move(key), std::move(ctx));
  ensure(inserted, "duplicate pending ctx");
  advance(it->second);
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

const RequestCtx& ProtocolKernel::view(Ctx& ctx) const {
  ctx.req.role = role_;
  ctx.req.peer_alive = any_peer_alive();
  return ctx.req;
}

Directive ProtocolKernel::call_phase(Ctx& ctx) {
  FtmBrick& slot = brick(ctx.phase);
  const RequestCtx& req = view(ctx);
  switch (ctx.phase) {
    case 0: return slot.before(req);
    case 1: return slot.proceed(req);
    default: return slot.after(req);
  }
}

void ProtocolKernel::advance(Ctx& ctx) {
  while (ctx.phase < 3) {
    Directive directive = call_phase(ctx);
    if (directive.verdict != Verdict::kDone) {
      apply(ctx, std::move(directive));
      return;
    }
    if (directive.result) ctx.req.result = std::move(*directive.result);
    advance_phase(ctx);
  }
  complete(ctx);
}

void ProtocolKernel::apply(Ctx& ctx, Directive directive) {
  if (directive.result) ctx.req.result = std::move(*directive.result);
  switch (directive.verdict) {
    case Verdict::kDone:
      advance_phase(ctx);
      advance(ctx);
      return;
    case Verdict::kAgain:
      advance(ctx);
      return;
    case Verdict::kFail:
      fail_request(ctx, directive.error);
      return;
    case Verdict::kWait:
      break;
  }
  ctx.waiting = true;
  // With an expected kind the context waits for a peer message; without one
  // it waits for a resume_after timer (a computation's CPU time).
  ctx.req.expect = directive.expect;
  ctx.expect_remaining = directive.expect_count;
  ctx.acked_peers.clear();
  if (ctx.req.expect.empty()) return;
  if (ctx.expect_remaining <= 0) {  // nobody to wait for after all
    ctx.waiting = false;
    advance_phase(ctx);
    advance(ctx);
    return;
  }
  // An early peer message may already be stashed; feed it immediately.
  const auto stashed =
      std::find_if(stash_.begin(), stash_.end(), [&ctx](const Stashed& entry) {
        return entry.key == ctx.req.key && entry.kind == ctx.req.expect;
      });
  if (stashed == stash_.end()) {
    schedule_peer_retry(ctx);
    return;
  }
  const Value message = std::move(stashed->message);
  stash_.erase(stashed);
  ctx.waiting = false;
  apply(ctx, brick(ctx.phase).on_peer(&view(ctx), message));
}

void ProtocolKernel::resume(const std::string& key, Value result) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Ctx& ctx = it->second;
  cancel_peer_retry(ctx);
  ctx.waiting = false;
  ctx.req.result = std::move(result);
  advance_phase(ctx);
  advance(ctx);
}

void ProtocolKernel::complete(Ctx& ctx) {
  Value reply = Value::map();
  reply.set("id", static_cast<std::int64_t>(ctx.req.id)).set("result", ctx.req.result);
  reply_log().record(ctx.req.key, reply);
  if (!ctx.req.forwarded && host() != nullptr) {
    host()->send(HostId{static_cast<std::uint32_t>(ctx.req.client)}, msg::kReply,
                 std::move(reply));
    ++counters_.replies;
  }
  finish_and_erase(ctx.req.key);
}

void ProtocolKernel::fail_request(Ctx& ctx, const std::string& error) {
  log().warn("ftm", composite()->name(), ": request ", ctx.req.key, " failed: ",
             error);
  if (!ctx.req.forwarded && host() != nullptr) {
    Value reply = Value::map();
    reply.set("id", static_cast<std::int64_t>(ctx.req.id)).set("error", error);
    host()->send(HostId{static_cast<std::uint32_t>(ctx.req.client)}, msg::kReply,
                 std::move(reply));
    ++counters_.error_replies;
    // Under an active strategy the follower runs its own pipeline for this
    // request and is waiting for our agreement message; it must learn that
    // the request died here, or its context leaks (and quiescence never
    // drains).
    if (any_peer_alive()) {
      send_peer("ctrl", "abort", Value::map().set("key", ctx.req.key));
    }
  }
  finish_and_erase(ctx.req.key);
}

void ProtocolKernel::finish_and_erase(std::string key) {
  {
    const auto it = pending_.find(key);
    if (it != pending_.end()) cancel_peer_retry(it->second);
  }
  pending_.erase(key);
  // Replay messages that were postponed until this request finished locally
  // (the brick can now answer them from the reply log).
  const auto deferred = deferred_.find(key);
  if (deferred != deferred_.end()) {
    auto messages = std::move(deferred->second);
    deferred_.erase(deferred);
    for (const auto& message : messages) handle_peer_message(message);
  }
  if (blocked_) check_drained();
}

void ProtocolKernel::stash(const std::string& key, const std::string& kind,
                           const Value& message) {
  // A request that finished here is answered from the reply log and never
  // waits again, so a late or duplicated message for it would stay forever.
  if (reply_log().lookup(key) != nullptr) return;
  const auto existing =
      std::find_if(stash_.begin(), stash_.end(), [&](const Stashed& entry) {
        return entry.key == key && entry.kind == kind;
      });
  if (existing != stash_.end()) {
    existing->message = message;
    return;
  }
  stash_.push_back(Stashed{key, kind, message});
  while (stash_.size() > kStashCapacity) stash_.pop_front();
}

// ---------------------------------------------------------------------------
// Peer path
// ---------------------------------------------------------------------------

void ProtocolKernel::handle_peer_message(const Value& payload) {
  const std::string& phase = payload.at("phase").as_string();
  const std::string& kind = payload.at("kind").as_string();

  if (phase == "ctrl") {
    handle_ctrl(kind, payload.get_or("data", Value::map()),
                payload.get_or("_from", Value(-1)).as_int());
    return;
  }

  const std::string key = payload.get_or("key", Value("")).as_string();
  const auto from = payload.get_or("_from", Value(-1)).as_int();
  const auto it = pending_.find(key);
  if (it != pending_.end() && it->second.waiting && it->second.req.expect == kind) {
    Ctx& ctx = it->second;
    // Multi-ack waits: count each peer once; advance only when the whole
    // group answered (duplicates from retransmissions are absorbed here).
    if (std::find(ctx.acked_peers.begin(), ctx.acked_peers.end(), from) !=
        ctx.acked_peers.end()) {
      return;
    }
    ctx.acked_peers.push_back(from);
    if (static_cast<int>(ctx.acked_peers.size()) < ctx.expect_remaining) {
      return;  // keep waiting for the rest of the group
    }
    cancel_peer_retry(ctx);
    ctx.waiting = false;
    apply(ctx, brick(ctx.phase).on_peer(&view(ctx), payload));
    return;
  }

  // Unsolicited message: dispatch to the phase's brick. The brick may act
  // directly (apply a checkpoint, serve an exec request, start a forwarded
  // pipeline) or ask the kernel to stash the message for a context that has
  // not reached the waiting phase yet.
  const int slot = phase == "before" ? 0 : phase == "exec" ? 1 : 2;
  const Directive directive = brick(slot).on_peer(nullptr, payload);
  if (directive.stash) stash(key, kind, payload);
  if (directive.defer) deferred_[key].push_back(payload);
}

void ProtocolKernel::send_peer(const char* phase, const char* kind, Value data) {
  if (host() == nullptr || alive_peers_.empty()) return;
  Value payload = Value::map();
  payload.set("phase", phase).set("kind", kind);
  if (data.is_map() && data.has("key")) payload.set("key", data.at("key"));
  payload.set("data", std::move(data));
  // One shared payload for the whole fan-out: with N backups the Value tree
  // is built (and its wire size computed) once, not N times.
  const Payload shared{std::move(payload)};
  for (const auto peer : alive_peers_) {
    if (peer < 0) continue;
    host()->send(HostId{static_cast<std::uint32_t>(peer)}, msg::kReplica,
                 shared);
  }
}

void ProtocolKernel::send_peer_to(std::int64_t peer, const char* phase,
                                  const char* kind, Value data) {
  if (peer < 0 || host() == nullptr) return;
  Value payload = Value::map();
  payload.set("phase", phase).set("kind", kind);
  if (data.is_map() && data.has("key")) payload.set("key", data.at("key"));
  payload.set("data", std::move(data));
  host()->send(HostId{static_cast<std::uint32_t>(peer)}, msg::kReplica,
               std::move(payload));
}

// ---------------------------------------------------------------------------
// Failover / rejoin
// ---------------------------------------------------------------------------

void ProtocolKernel::set_role(Role role) {
  if (role == role_) return;
  set_property("role", Value(to_string(role)));  // triggers listener hook
}

void ProtocolKernel::on_peer_suspected(std::int64_t peer) {
  auto it = peer_alive_map_.find(peer);
  if (it == peer_alive_map_.end() || !it->second) return;
  it->second = false;
  refresh_alive_peers();
  log().info("ftm", composite()->name(), ": peer h", peer, " suspected, role ",
             to_string(role_));

  const auto master_id = master();
  const auto self =
      host() != nullptr ? static_cast<std::int64_t>(host()->id().value()) : -1;

  if (role_ == Role::kPrimary && !any_peer_alive()) {
    // Last one standing.
    set_role(Role::kAlone);
  } else if (role_ == Role::kBackup && peer == master_id) {
    // The master died: the lowest-id live replica takes over
    // (deterministic rank-based election; all backups compute the same).
    std::int64_t new_master = self;
    for (const auto candidate : alive_peers_) {
      new_master = std::min(new_master, candidate);
    }
    set_property("master", Value(new_master));
    if (new_master == self) {
      ++counters_.promotions;
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->instant(host()->id().value(), promote_span_name_, 0,
                         host()->sim().now(), peer);
      }
      set_role(any_peer_alive() ? Role::kPrimary : Role::kAlone);
    }
  }

  // Contexts parked on a response from the dead peer must not wait forever:
  // re-run their phase against the new group (bricks re-broadcast to the
  // survivors or finish master-alone).
  std::vector<std::string> waiting_keys;
  for (const auto& [key, ctx] : pending_) {
    if (ctx.waiting && !ctx.req.expect.empty()) waiting_keys.push_back(key);
  }
  for (const auto& key : waiting_keys) {
    const auto pending = pending_.find(key);
    if (pending == pending_.end()) continue;
    Ctx& ctx = pending->second;
    cancel_peer_retry(ctx);
    ctx.waiting = false;
    ++ctx.req.attempt;
    apply(ctx, call_phase(ctx));
  }
}

void ProtocolKernel::on_peer_recovered(std::int64_t peer) {
  const auto it = peer_alive_map_.find(peer);
  if (it == peer_alive_map_.end() || it->second) return;
  it->second = true;
  refresh_alive_peers();
  log().info("ftm", composite()->name(), ": peer h", peer, " recovered");
}

void ProtocolKernel::handle_ctrl(const std::string& kind, const Value& data,
                                 std::int64_t from) {
  if (kind == "abort") {
    // The master failed this request; drop our forwarded context for it
    // (nothing to record, nothing to reply). If the forward itself has not
    // arrived yet (reordered on a jittery link), remember the abort so the
    // late forward is not started.
    const auto& key = data.at("key").as_string();
    const auto it = pending_.find(key);
    if (it != pending_.end() && it->second.req.forwarded) {
      finish_and_erase(it->first);
    } else if (it == pending_.end()) {
      aborted_keys_.push_back(key);
      while (aborted_keys_.size() > 256) aborted_keys_.pop_front();
    }
    return;
  }
  if (kind == "join") {
    // A restarted replica asks to rejoin as backup; only the master answers,
    // shipping its state and reply log.
    if (role_ != Role::kPrimary && role_ != Role::kAlone) return;
    if (from >= 0) {
      peer_alive_map_[from] = true;
      refresh_alive_peers();
    }
    send_peer_to(from, "ctrl", "join_ack", brick(kAfterRef).make_join_snapshot());
    set_role(Role::kPrimary);
    return;
  }
  if (kind == "join_ack") {
    if (from >= 0) {
      peer_alive_map_[from] = true;
      refresh_alive_peers();
    }
    if (tracer_ != nullptr && tracer_->enabled() && host() != nullptr) {
      tracer_->instant(host()->id().value(), rejoin_span_name_, 0,
                       host()->sim().now(), from);
    }
    brick(kAfterRef).apply_join_snapshot(data);
    set_property("master", Value(from));
    set_role(Role::kBackup);
    return;
  }
  throw FtmError(strf("protocol: unknown ctrl kind '", kind, "'"));
}

// ---------------------------------------------------------------------------
// Typed control interface (bricks, failure detector, runtime, agent)
// ---------------------------------------------------------------------------

void ProtocolKernel::resume_after(const std::string& key, sim::Duration delay,
                                  Value result) {
  if (host() == nullptr) {
    resume(key, std::move(result));
    return;
  }
  if (host()->sim().fsim().enabled()) {
    // fsim "timer.arm": same lost-tick model as the peer-retry timer —
    // the resume fires one period late, masked as latency.
    const fsim::Site site{"resume", 0,
                          static_cast<std::int64_t>(host()->sim().now())};
    if (host()->sim().fsim().should_fail(fsim::Point::kTimerArm, site)) {
      delay *= 2;
    }
  }
  const auto handle = next_resume_timer_++;
  const TimerId timer = host()->schedule_after(
      delay,
      [this, handle] {
        auto node = resume_timers_.extract(handle);
        resume(node.mapped().key, std::move(node.mapped().result));
      },
      "ftm.resume");
  resume_timers_.emplace(handle, Resume{timer, key, std::move(result)});
}

void ProtocolKernel::start_forwarded(const Value& payload) {
  ++counters_.forwarded;
  if (blocked_) {
    buffered_forwarded_.push_back(payload);
    return;
  }
  start_request(payload, /*forwarded=*/true);
}

std::optional<ProtocolKernel::InFlight> ProtocolKernel::peek(
    const std::string& key) const {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return std::nullopt;
  return InFlight{it->second.phase, &it->second.req.result};
}

void ProtocolKernel::report_fault(Fault kind) {
  if (kind == Fault::kDivergence) ++counters_.divergences;
  if (kind == Fault::kAssertionFailed) ++counters_.assertion_failures;
  if (kind == Fault::kTrMismatch) ++counters_.tr_mismatches;
  log().info("ftm", composite()->name(), ": fault reported: ", to_string(kind));
  if (fault_listener_) fault_listener_(to_string(kind));
}

void ProtocolKernel::count_event(Event kind) {
  obs::Counter* const counters[] = {
      &counters_.checkpoints_sent, &counters_.checkpoints_applied,
      &counters_.deltas_sent,      &counters_.full_checkpoints_sent,
      &counters_.resyncs,          &counters_.notifications};
  ++*counters[static_cast<std::size_t>(kind)];
}

void ProtocolKernel::join() { send_peer("ctrl", "join", Value::map()); }

bool ProtocolKernel::quiesce() {
  blocked_ = true;
  const bool drained = pending_.empty();
  if (drained && quiesce_listener_) quiesce_listener_();
  return drained;
}

void ProtocolKernel::unblock() {
  blocked_ = false;
  drain_buffers();
}

// ---------------------------------------------------------------------------
// Quiescence
// ---------------------------------------------------------------------------

void ProtocolKernel::check_drained() {
  if (blocked_ && pending_.empty() && quiesce_listener_) quiesce_listener_();
}

void ProtocolKernel::drain_buffers() {
  // Replay buffered traffic in arrival order: forwarded work first (it was
  // accepted by the old configuration's leader), then fresh client requests.
  auto forwarded = std::move(buffered_forwarded_);
  buffered_forwarded_.clear();
  for (const auto& payload : forwarded) {
    if (blocked_) {
      buffered_forwarded_.push_back(payload);
      continue;
    }
    start_request(payload, /*forwarded=*/true);
  }
  auto requests = std::move(buffered_requests_);
  buffered_requests_.clear();
  for (const auto& payload : requests) {
    if (blocked_) {
      buffered_requests_.push_back(payload);
      continue;
    }
    handle_client_request(payload);
  }
}

}  // namespace rcs::ftm
