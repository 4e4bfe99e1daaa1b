// Component base class.
//
// A component is an instance of a registered type living inside a Composite.
// It exposes its services through dynamic invocation
// (invoke(service, op, args) -> Value) and reaches other components only
// through its references (call(reference, op, args)), which the composite
// resolves through the current wire set. This indirection is the paper's key
// enabler: a reconfiguration script can replace the component at the other
// end of a wire between two requests, and the caller never notices.
// Each wire is resolved once, when it is made, into the caller's link table
// (one entry per declared reference); calls index it. on_wire may refuse a
// target at bind time, which lets typed callers use linked<T>() unchecked.
#pragma once

#include <string>
#include <vector>

#include "rcs/common/value.hpp"
#include "rcs/component/ports.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::sim {
class Host;
}

namespace rcs::comp {

class Composite;

class Component {
 public:
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ComponentTypeInfo& info() const { return *info_; }
  [[nodiscard]] const std::string& type_name() const { return info_->type_name; }
  [[nodiscard]] LifecycleState state() const { return state_; }
  [[nodiscard]] bool started() const { return state_ == LifecycleState::kStarted; }

  /// The composite this component lives in (null until added).
  [[nodiscard]] Composite* composite() const { return composite_; }
  /// The simulated host the composite is deployed on (may be null in tests).
  [[nodiscard]] sim::Host* host() const;

  // --- Properties -------------------------------------------------------
  [[nodiscard]] const Value& properties() const { return properties_; }
  [[nodiscard]] Value property(const std::string& key) const;
  void set_property(const std::string& key, Value value);
  /// Drop `key` (a no-op when absent); property(key) then reads null.
  void erase_property(const std::string& key);

  // --- Dynamic invocation -------------------------------------------------
  /// Invoke an operation on one of this component's services. Throws
  /// ComponentError if the component is stopped or the service is undeclared.
  Value invoke(const std::string& service, const std::string& op, const Value& args);

  /// One resolved wire: the component at the other end of a reference and
  /// the service it was wired to (null target = unwired).
  struct Link {
    Component* target{nullptr};
    const std::string* service{nullptr};
  };
  /// The link table entry of the reference at `index` in info().references.
  [[nodiscard]] const Link& link(std::size_t index) const { return links_.at(index); }

 protected:
  Component() = default;

  /// Service dispatch, implemented by subclasses.
  virtual Value on_invoke(const std::string& service, const std::string& op,
                          const Value& args) = 0;

  /// Lifecycle hooks.
  virtual void on_start() {}
  virtual void on_stop() {}
  virtual void on_property_changed(const std::string& /*key*/) {}

  /// Call through one of this component's references; resolved by the
  /// composite against the current wires.
  Value call(const std::string& reference, const std::string& op,
             const Value& args = {});

  /// True if the reference is currently wired (for optional references).
  [[nodiscard]] bool wired(const std::string& reference) const;

  /// Bind-time check, called by Composite::wire before the reference at
  /// `index` in info().references is bound to `target`. Throw ComponentError
  /// to refuse the target; the wire is then not made.
  virtual void on_wire(std::size_t /*index*/, const Component& /*target*/) {}
  /// For on_wire overrides: refuse `target` unless it is a T (`what` names
  /// T in the error message).
  template <typename T>
  void require_target(std::size_t index, const Component& target,
                      const char* what) const {
    if (dynamic_cast<const T*>(&target) == nullptr) refuse(index, target, what);
  }

  /// A reference position that names no reference (an unresolved index).
  static constexpr std::size_t kNoReference = static_cast<std::size_t>(-1);

  /// The started component wired to the reference at `index`. Throws the
  /// same ComponentError as call() when the reference is unwired or its
  /// target is stopped (LogicError for kNoReference).
  [[nodiscard]] Component& linked(std::size_t index) const;
  /// linked() cast to the type that on_wire admitted for this reference.
  template <typename T>
  [[nodiscard]] T& linked(std::size_t index) const {
    return static_cast<T&>(linked(index));
  }

 private:
  friend class Composite;

  [[noreturn]] void refuse(std::size_t index, const Component& target,
                           const char* what) const;
  [[noreturn]] void throw_unwired(const std::string& reference) const;
  [[noreturn]] void throw_stopped(const std::string& service) const;

  std::vector<Link> links_;  // one entry per info().references
  std::string name_;
  const ComponentTypeInfo* info_{nullptr};
  Composite* composite_{nullptr};
  LifecycleState state_{LifecycleState::kStopped};
  Value properties_{Value::map()};
};

/// A component implemented by a single std::function — handy for tests and
/// tiny adapters. Dispatches every (service, op) pair to the handler.
class LambdaComponent : public Component {
 public:
  using Handler =
      std::function<Value(const std::string& service, const std::string& op,
                          const Value& args)>;

  static ComponentTypeInfo make_type(std::string type_name,
                                     std::vector<PortSpec> services,
                                     std::vector<PortSpec> references,
                                     Handler handler);

 protected:
  Value on_invoke(const std::string& service, const std::string& op,
                  const Value& args) override {
    return handler_(service, op, args);
  }

 private:
  explicit LambdaComponent(Handler handler) : handler_(std::move(handler)) {}

  Handler handler_;
};

}  // namespace rcs::comp
