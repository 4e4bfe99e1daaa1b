// Reply log: at-most-once request semantics.
//
// One of the FTM composite's common parts (Fig. 6). Maps request keys
// ("c<client>:<id>") to the reply already sent, so a retransmitted request is
// answered from the log instead of re-executed. The log is part of the PBR
// checkpoint (export/import) so at-most-once survives failover.
//
// Bounded capacity with FIFO eviction: clients retransmit within a bounded
// window, so the oldest entries are dead weight — and the log travels inside
// every PBR checkpoint, so a tight bound keeps checkpoint traffic close to
// the state size.
//
// For incremental checkpoints, every record is stamped with a monotone
// sequence number; export_since ships only entries newer than the
// acknowledged watermark, and import_delta refuses snapshots whose base is
// ahead of what this log has seen (the caller then falls back to a full
// export/import through the join path).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "rcs/component/component.hpp"

namespace rcs::ftm {

class ReplyLogComponent : public comp::Component {
 public:
  static constexpr std::size_t kDefaultCapacity = 32;

  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  // --- Typed interface (the kernel and the bricks, through their links) ---
  /// The reply recorded for `key`, or null. The pointer dies at the next
  /// mutation of the log.
  [[nodiscard]] const Value* lookup(const std::string& key) const;
  /// `state` names the driving op for the fsim "replylog.append" point
  /// ("record" for a fresh reply, "import_delta" for checkpoint import).
  void record(const std::string& key, const Value& reply,
              const char* state = "record");
  /// {entries: {key: reply}, order: [key], upto}
  [[nodiscard]] Value export_all() const;
  /// Replace the content with an export_all() snapshot.
  void import_all(const Value& snapshot);
  /// {entries, order, from, upto}: only entries the peer has not acked.
  [[nodiscard]] Value export_since() const;
  /// Advance the export watermark to `upto`.
  void ack_export(std::uint64_t upto);
  /// Import an export_since() delta; false (nothing imported) when its base
  /// is ahead of what this log has seen.
  [[nodiscard]] bool import_delta(const Value& delta);

 protected:
  // Service "log", interface rcs.ReplyLog, for dynamic callers. Ops:
  //   lookup {key}            -> {found: bool, reply?: value}
  //   record {key, reply}     -> null
  //   export {}               -> export_all()
  //   import {entries, order, upto?} -> null (replaces content)
  //   size {}                 -> int
  //   clear {}                -> null
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& args) override;

 private:
  struct Entry {
    Value reply;
    std::uint64_t seq{0};  // record order, for incremental export
  };

  [[nodiscard]] std::size_t capacity() const;
  void evict_to_capacity();

  std::map<std::string, Entry> entries_;
  std::deque<std::string> order_;  // insertion order, for FIFO eviction
  std::uint64_t record_seq_{0};    // stamp of the newest record
  std::uint64_t export_acked_{0};  // primary: highest seq the peer acked
  std::uint64_t import_mark_{0};   // backup: highest seq imported so far
};

}  // namespace rcs::ftm
