// Transactional reconfiguration session.
//
// Wraps a Composite with journaled mutations: every operation records its
// inverse, and rollback() undoes everything in reverse order. This gives the
// all-or-nothing semantics the paper requires of its FScript substrate
// (§5.3 "local consistency"): a failed or constraint-violating transition
// leaves the architecture exactly as it was.
//
// The journal is data: one Undo record per operation, replayed by a switch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rcs/common/error.hpp"
#include "rcs/common/value.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/script/ast.hpp"

namespace rcs::script {

class ReconfigSession {
 public:
  /// `expected_ops` reserves journal room for that many operations.
  explicit ReconfigSession(comp::Composite& composite,
                           std::size_t expected_ops = 0)
      : composite_(composite) {
    journal_.reserve(expected_ops);
  }
  ~ReconfigSession();

  ReconfigSession(const ReconfigSession&) = delete;
  ReconfigSession& operator=(const ReconfigSession&) = delete;

  // Journaled mirrors of the composite's reconfiguration API. Each throws
  // ComponentError on violation exactly as the composite does.
  void add(const std::string& type_name, const std::string& instance_name);
  void remove(const std::string& instance_name);
  void start(const std::string& instance_name);
  void stop(const std::string& instance_name);
  void wire(const std::string& from, const std::string& reference,
            const std::string& to, const std::string& service);
  void unwire(const std::string& from, const std::string& reference);
  void set_property(const std::string& instance_name, const std::string& key,
                    Value value);

  /// Validate integrity constraints and finalize. Throws ScriptException
  /// (after rolling back) if the resulting configuration is invalid.
  void commit();

  /// Undo all journaled operations in reverse order. Idempotent.
  void rollback();

  [[nodiscard]] bool finished() const { return committed_ || rolled_back_; }
  [[nodiscard]] std::size_t journal_size() const { return journal_.size(); }
  /// Number of reconfiguration operations executed (for cost accounting).
  [[nodiscard]] int op_count() const { return op_count_; }
  /// Operations executed per reconfiguration verb, indexed by Verb.
  [[nodiscard]] const std::array<int, kReconfigVerbs>& ops_by_verb() const {
    return ops_by_verb_;
  }

  [[nodiscard]] comp::Composite& composite() { return composite_; }

 private:
  /// The inverse of one operation.
  struct Undo {
    enum class Kind : std::uint8_t {
      kRemove,           // remove `name`
      kRevive,           // add `name` of type `key` with properties `value`
      kStart,            // start `name`
      kStop,             // stop `name`
      kWire,             // wire `name`.`key` to `to`.`service`
      kUnwire,           // unwire `name`.`key`
      kRestoreProperty,  // set property `key` of `name` back to `value`
      kEraseProperty,    // erase property `key` of `name`
    };
    Kind kind{};
    std::string name{};
    std::string key{};
    std::string to{};
    std::string service{};
    Value value{};
  };

  void count(Verb verb);
  void undo(Undo& record);

  comp::Composite& composite_;
  std::vector<Undo> journal_;
  std::array<int, kReconfigVerbs> ops_by_verb_{};
  int op_count_{0};
  bool committed_{false};
  bool rolled_back_{false};
};

}  // namespace rcs::script
