#include "rcs/component/component.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/component/composite.hpp"

namespace rcs::comp {

sim::Host* Component::host() const {
  return composite_ ? composite_->host() : nullptr;
}

Value Component::property(const std::string& key) const {
  return properties_.get_or(key, Value{});
}

void Component::set_property(const std::string& key, Value value) {
  properties_.set(key, std::move(value));
  on_property_changed(key);
}

Value Component::invoke(const std::string& service, const std::string& op,
                        const Value& args) {
  if (state_ != LifecycleState::kStarted) {
    throw ComponentError(strf("invoke on stopped component '", name_, "' (",
                              type_name(), "), service '", service, "'"));
  }
  if (info_->find_service(service) == nullptr) {
    throw ComponentError(strf("component '", name_, "' (", type_name(),
                              ") does not provide service '", service, "'"));
  }
  return on_invoke(service, op, args);
}

Value Component::call(const std::string& reference, const std::string& op,
                      const Value& args) {
  // Formats only on failure: this runs on every inter-component call.
  if (composite_ == nullptr) {
    throw LogicError(strf("component '", name_, "' is not inside a composite"));
  }
  return composite_->call_reference(*this, reference, op, args);
}

bool Component::wired(const std::string& reference) const {
  return composite_ != nullptr && composite_->is_wired(name_, reference);
}

ComponentTypeInfo LambdaComponent::make_type(std::string type_name,
                                             std::vector<PortSpec> services,
                                             std::vector<PortSpec> references,
                                             Handler handler) {
  ComponentTypeInfo info;
  info.type_name = std::move(type_name);
  info.description = "lambda component";
  info.services = std::move(services);
  info.references = std::move(references);
  info.factory = [handler = std::move(handler)]() {
    return std::unique_ptr<Component>(new LambdaComponent(handler));
  };
  return info;
}

}  // namespace rcs::comp
