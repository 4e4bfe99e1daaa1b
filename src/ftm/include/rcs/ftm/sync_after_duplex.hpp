// Shared machinery of the duplex syncAfter bricks.
//
// This mirrors the paper's second design loop (§4.2): what is common to all
// duplex agreement phases — assertion checking with re-execution on the other
// node (the A&Duplex recovery, §3.2.1), serving a peer's re-execution
// request, and replica-rejoin snapshots — is factored here; PBR and LFR
// subclasses supply only their own agreement action (checkpoint vs notify).
#pragma once

#include <string>

#include "rcs/ftm/bricks.hpp"

namespace rcs::ftm {

class SyncAfterDuplexBase : public FtmBrick {
 public:
  Directive after(const RequestCtx& ctx) override;
  Directive on_peer(const RequestCtx* ctx, const Value& message) override;
  /// Anchors the joiner into the current delta stream: the snapshot carries
  /// the capture-side (stream, seq) so checkpoints captured concurrently
  /// with the join re-apply idempotently on the joiner.
  Value make_join_snapshot() override;
  void apply_join_snapshot(const Value& snapshot) override;

 protected:
  explicit SyncAfterDuplexBase(bool with_assertion)
      : with_assertion_(with_assertion) {}

  /// Strategy-specific agreement action for the master side: done after a
  /// fire-and-forget send, or a wait for an ack.
  virtual Directive master_after(const RequestCtx& ctx) = 0;
  /// Strategy-specific handling of a solicited peer message (the kind the
  /// master waited for) — checkpoint_ack / notify.
  virtual Directive on_solicited(const RequestCtx& ctx, const Value& message) = 0;
  /// Strategy-specific handling of unsolicited messages (slave side):
  /// checkpoint application, early notifications...
  virtual Directive on_unsolicited(const Value& message) = 0;
  /// Follower-side behaviour for a forwarded context reaching After.
  virtual Directive forwarded_after(const RequestCtx& ctx) = 0;

  [[nodiscard]] bool with_assertion() const { return with_assertion_; }

  // --- Shared helpers -------------------------------------------------------
  [[nodiscard]] bool check_assertion(const Value& request, const Value& result);
  /// Read the application state if the state manager is wired.
  [[nodiscard]] Value capture_state();
  void restore_state(const Value& state);

 private:
  Directive handle_exec_request(const Value& message);
  Directive handle_exec_result(const Value& message);

  bool with_assertion_;
};

}  // namespace rcs::ftm
