// Protocol kernel: the FTM's common part.
//
// This component realizes what the paper's two design loops factored into the
// FaultToleranceProtocol and DuplexProtocol base classes (§4.1-4.2):
// communication with the client, at-most-once semantics via the reply log,
// the Before-Proceed-After pipeline, inter-replica message routing, failover
// (promotion to master-alone), replica rejoin, and the quiescence gate used
// during reconfigurations (§5.3). It holds all protocol state — request
// contexts, buffers, counters — so the variable-feature bricks it drives stay
// stateless and can be swapped by differential transitions.
//
// Pipeline: a client request runs Before -> Proceed -> After -> reply. Each
// phase calls the wired brick's typed virtual (before / proceed / after) with
// the kernel-owned RequestCtx; the brick answers with a Directive:
//   kDone  - phase complete, advance (optionally carrying a result)
//   kWait  - wait for `expect_count` peer messages of kind `expect` (or a
//            stashed early copy), then feed the last to the brick's on_peer;
//            an empty `expect` waits for a resume_after timer
//   kAgain - re-run the current phase (used by assertion recovery)
//   kFail  - abort with `error`; the client gets an error reply
// For an unsolicited message (on_peer with a null ctx) only `stash` (park it
// for a later wait) and `defer` (replay it when its key finishes) count.
// Bricks, the failure detector, FtmRuntime and NodeAgent reach the kernel
// through its typed control interface (the public section below). Value maps
// stay at the edges: wire payloads, reply-log entries, exported deltas and
// the application's services.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/obs/metrics.hpp"
#include "rcs/obs/trace.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::ftm {

class FtmBrick;
class ReplyLogComponent;

/// What a brick sees of one in-flight request. The kernel owns it and
/// refreshes `role` and `peer_alive` before every brick call; bricks take it
/// by const reference and keep no copy.
struct RequestCtx {
  std::string key;  // "c<client>:<id>"
  std::int64_t client{-1};
  std::uint64_t id{0};
  Value request;
  Value result;
  bool forwarded{false};  // a follower's copy of the leader's request
  Role role{Role::kPrimary};
  bool peer_alive{false};  // some member of the replica group is alive
  std::string expect;      // peer-message kind the context waits for
  int attempt{0};          // re-runs of a waiting phase so far
  /// End-to-end trace id minted by the client (0 = untraced).
  std::uint64_t trace{0};

  [[nodiscard]] bool master() const {
    return role == Role::kPrimary || role == Role::kAlone;
  }
  /// A live peer that is still part of this replica's group.
  [[nodiscard]] bool peer_available() const {
    return peer_alive && role != Role::kAlone;
  }
};

enum class Verdict : std::uint8_t { kDone, kWait, kAgain, kFail };

/// A brick's answer to a phase call or a peer message (see above).
struct Directive {
  Verdict verdict{Verdict::kDone};
  std::optional<Value> result;  // replaces RequestCtx::result when set
  std::string_view expect;      // kWait: peer-message kind (a literal)
  int expect_count{1};          // kWait: matching messages, one per peer
  std::string error;            // kFail
  bool stash{false};            // unsolicited: keep for a later wait
  bool defer{false};            // unsolicited: replay when the key finishes
};

/// Faults a brick reports to the monitoring path.
enum class Fault : std::uint8_t {
  kDivergence, kAssertionFailed, kTrMismatch, kTrNoMajority,
  kAcceptanceFailed, kBothVariantsRejected, kBothReplicasFaulty
};
[[nodiscard]] const char* to_string(Fault fault);

/// Protocol events a brick counts in the kernel's counter block (in the
/// order of count_event's table).
enum class Event : std::uint8_t {
  kCheckpointSent, kCheckpointApplied, kDeltaSent, kFullCheckpointSent,
  kResyncRequested, kNotification
};

class ProtocolKernel : public comp::Component {
 public:
  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  ~ProtocolKernel() override;

  /// Kernel counter block. Each counter is an obs::Counter handle: it counts
  /// locally until on_start binds it into the simulation's MetricsRegistry
  /// (scoped "ftm.<name>@<host>"), after which the registry cell is the live
  /// storage and one export covers every kernel in the deployment. Handles
  /// read as plain integers.
  struct Counters {
    obs::Counter requests;
    obs::Counter replies;
    obs::Counter error_replies;
    obs::Counter duplicates_served;
    obs::Counter forwarded;
    obs::Counter checkpoints_sent;
    obs::Counter checkpoints_applied;
    // Checkpoint composition: every checkpoint_sent is also counted as
    // either a delta or a full-state transfer.
    obs::Counter deltas_sent;
    obs::Counter full_checkpoints_sent;
    // Backup-side gap detections that triggered a full resync (join path).
    obs::Counter resyncs;
    obs::Counter notifications;
    obs::Counter divergences;
    obs::Counter assertion_failures;
    obs::Counter tr_mismatches;
    obs::Counter promotions;
    obs::Counter buffered;
  };

  /// Early peer messages kept at most; the oldest is dropped beyond this.
  static constexpr std::size_t kStashCapacity = 256;

  // --- Native hooks for the runtime / adaptation engine -------------------
  /// Called whenever a fault is reported (kind: to_string(Fault)).
  void set_fault_listener(std::function<void(const std::string& kind)> listener) {
    fault_listener_ = std::move(listener);
  }
  /// Called on role changes (promotion to alone, rejoin to primary/backup).
  void set_role_listener(std::function<void(Role)> listener) {
    role_listener_ = std::move(listener);
  }
  /// Called when a quiesce completes (all in-flight requests drained).
  void set_quiesce_listener(std::function<void()> listener) {
    quiesce_listener_ = std::move(listener);
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Role role() const { return role_; }
  /// Host id of the group's current master (the "master" property).
  [[nodiscard]] std::int64_t master() const;
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  [[nodiscard]] std::size_t buffered() const {
    return buffered_requests_.size() + buffered_forwarded_.size();
  }
  /// Early peer messages parked until a context waits for them.
  [[nodiscard]] std::size_t stashed() const { return stash_.size(); }

  // --- Typed control interface ---------------------------------------------
  /// The replica group (the "peers" property) and its live members, in
  /// group order.
  [[nodiscard]] const std::vector<std::int64_t>& peers() const { return peers_; }
  [[nodiscard]] const std::vector<std::int64_t>& alive_peers() const {
    return alive_peers_;
  }
  /// Send {phase, kind, key?, data} to every live peer / to one host.
  void send_peer(const char* phase, const char* kind, Value data);
  void send_peer_to(std::int64_t peer, const char* phase, const char* kind,
                    Value data);
  /// Resume the context `key` waits in after `delay` of virtual time (the
  /// CPU cost of a computation), adopting `result`.
  void resume_after(const std::string& key, sim::Duration delay, Value result);
  void report_fault(Fault kind);
  void count_event(Event kind);
  /// Start a follower pipeline for a request the leader forwarded
  /// ({client, id, request, trace?}); buffered while the kernel is blocked.
  void start_forwarded(const Value& payload);
  /// A request in flight here: its phase (0 before, 1 proceed, 2 after) and
  /// current result. Null when `key` is not in flight.
  struct InFlight {
    int phase;
    const Value* result;
  };
  [[nodiscard]] std::optional<InFlight> peek(const std::string& key) const;
  /// Ask the group to take this (restarted) replica back as backup.
  void join();
  /// Block new requests (buffering them); true if nothing was in flight. The
  /// quiesce listener fires once the last in-flight request finishes.
  bool quiesce();
  /// Reopen the gate and replay buffered requests.
  void unblock();
  /// Failure-detector hooks.
  void on_peer_suspected(std::int64_t peer);
  void on_peer_recovered(std::int64_t peer);

 protected:
  // Services (the wire edge, reached through Composite::invoke):
  //   "client"  (rcs.ClientPort): op "request" {client, id, request}
  //   "peer"    (rcs.PeerPort):   op "message" {phase, kind, key?, data}
  //   "control" (rcs.ProtocolControl): typed calls only (see above)
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& args) override;

  void on_start() override;
  void on_property_changed(const std::string& key) override;
  /// Admits only FTM bricks into the brick slots and only a reply log into
  /// the replyLog reference.
  void on_wire(std::size_t index, const comp::Component& target) override;

 private:
  /// Positions in info().references; the brick slots are the phase numbers.
  enum Ref : std::size_t { kBeforeRef, kExecRef, kAfterRef, kReplyLogRef };

  /// One in-flight request (client-originated or forwarded by the leader).
  struct Ctx {
    RequestCtx req;
    int phase{0};  // 0=before 1=proceed 2=after 3=done
    /// Virtual time the current phase started (traced requests only).
    sim::Time phase_start{0};
    bool waiting{false};
    TimerId retry_timer{};
    /// Multi-ack waits (checkpoint to N backups): how many more matching
    /// peer messages are needed, and who already answered.
    int expect_remaining{1};
    std::vector<std::int64_t> acked_peers;
  };

  /// An early peer message parked for (key, kind).
  struct Stashed {
    std::string key;
    std::string kind;
    Value message;
  };

  /// A pending resume_after timer.
  struct Resume {
    TimerId timer;
    std::string key;
    Value result;
  };

  // Entry points.
  void handle_client_request(const Value& payload);
  void handle_peer_message(const Value& payload);

  // Pipeline machinery.
  [[nodiscard]] FtmBrick& brick(int phase) const;
  [[nodiscard]] ReplyLogComponent& reply_log() const;
  /// The context's brick view, with role and liveness brought up to date.
  const RequestCtx& view(Ctx& ctx) const;
  void start_request(const Value& payload, bool forwarded);
  /// Close the span of the phase `ctx` is in (when tracing) and step to the
  /// next phase. Every phase transition funnels through here.
  void advance_phase(Ctx& ctx);
  /// Run phases until one does not finish at once, then complete.
  void advance(Ctx& ctx);
  /// Call the brick of the phase `ctx` is in.
  Directive call_phase(Ctx& ctx);
  /// Act on a brick's directive for `ctx`.
  void apply(Ctx& ctx, Directive directive);
  void resume(const std::string& key, Value result);
  void complete(Ctx& ctx);
  void fail_request(Ctx& ctx, const std::string& error);
  // Takes the key BY VALUE: callers pass ctx.key, which lives inside
  // the map entry being erased.
  void finish_and_erase(std::string key);
  void stash(const std::string& key, const std::string& kind,
             const Value& message);

  // Peer group / failover. The replica group is the "peers" property (list
  // of host ids) plus the "master" property; liveness is tracked per peer.
  void rebuild_peer_group();
  /// Recompute alive_peers_ after any liveness change.
  void refresh_alive_peers();
  [[nodiscard]] bool any_peer_alive() const { return !alive_peers_.empty(); }
  void handle_ctrl(const std::string& kind, const Value& data,
                   std::int64_t from);
  void set_role(Role role);

  // Peer-wait retransmission: a lost checkpoint/ack/exec message must not
  // wedge the pipeline — re-run the waiting phase periodically until the
  // message arrives or the failure detector declares the peer dead.
  void schedule_peer_retry(Ctx& ctx);
  void cancel_peer_retry(Ctx& ctx);
  void on_peer_retry(const std::string& key);
  [[nodiscard]] sim::Duration retry_interval() const;

  // Quiescence.
  void check_drained();
  void drain_buffers();

  Role role_{Role::kPrimary};
  std::vector<std::int64_t> peers_;
  std::vector<std::int64_t> alive_peers_;
  std::map<std::int64_t, bool> peer_alive_map_;
  bool blocked_{false};
  std::map<std::string, Ctx> pending_;
  /// Early peer messages stashed until a context starts waiting for them;
  /// keeps the bricks stateless. Bounded FIFO (kStashCapacity).
  std::deque<Stashed> stash_;
  /// Unsolicited messages a brick asked to postpone until the local pipeline
  /// for their key finishes (e.g. an exec_req racing the local execution).
  std::map<std::string, std::vector<Value>> deferred_;
  /// Abort notices that overtook their forwarded request on the wire; the
  /// matching forwarded pipeline must not be started. Bounded FIFO.
  std::deque<std::string> aborted_keys_;
  std::deque<Value> buffered_requests_;   // raw client payloads while blocked
  std::deque<Value> buffered_forwarded_;  // forwarded payloads while blocked
  /// Outstanding resume timers; cancelled on destruction so a replaced
  /// composite leaves no closures pointing at a dead kernel.
  std::map<std::uint64_t, Resume> resume_timers_;
  std::uint64_t next_resume_timer_{0};
  Counters counters_;

  // Observability wiring (set up in on_start when the kernel runs on a host;
  // unit tests without a host keep local counters and no tracer).
  void bind_observability();
  obs::Tracer* tracer_{nullptr};
  obs::NameId phase_span_names_[3]{};
  obs::NameId promote_span_name_{0};
  obs::NameId rejoin_span_name_{0};

  std::function<void(const std::string&)> fault_listener_;
  std::function<void(Role)> role_listener_;
  std::function<void()> quiesce_listener_;
};

}  // namespace rcs::ftm
