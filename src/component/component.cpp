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

void Component::erase_property(const std::string& key) {
  properties_.as_map().erase(key);
  on_property_changed(key);
}

Value Component::invoke(const std::string& service, const std::string& op,
                        const Value& args) {
  if (state_ != LifecycleState::kStarted) throw_stopped(service);
  if (info_->find_service(service) == nullptr) {
    throw ComponentError(strf("component '", name_, "' (", type_name(),
                              ") does not provide service '", service, "'"));
  }
  return on_invoke(service, op, args);
}

void Component::throw_stopped(const std::string& service) const {
  throw ComponentError(strf("invoke on stopped component '", name_, "' (",
                            type_name(), "), service '", service, "'"));
}

void Component::refuse(std::size_t index, const Component& target,
                       const char* what) const {
  throw ComponentError(strf(composite_->name(), ": cannot wire ", name_, ".",
                            info_->references[index].name, " to '",
                            target.name(), "' (", target.type_name(),
                            "): it is not ", what));
}

void Component::throw_unwired(const std::string& reference) const {
  throw ComponentError(strf(composite_->name(), ": call through unwired reference ",
                            name_, ".", reference));
}

Value Component::call(const std::string& reference, const std::string& op,
                      const Value& args) {
  // Formats only on failure: this runs on every inter-component call.
  if (composite_ == nullptr) {
    throw LogicError(strf("component '", name_, "' is not inside a composite"));
  }
  const PortSpec* ref = info_->find_reference(reference);
  if (ref == nullptr) {
    throw ComponentError(strf(composite_->name(), ": '", name_, "' (",
                              type_name(), ") has no reference '", reference,
                              "'"));
  }
  const Link& link = links_[static_cast<std::size_t>(ref - info_->references.data())];
  if (link.target == nullptr) throw_unwired(reference);
  // The service was checked when the wire was made.
  if (!link.target->started()) link.target->throw_stopped(*link.service);
  return link.target->on_invoke(*link.service, op, args);
}

Component& Component::linked(std::size_t index) const {
  if (index >= links_.size()) {
    throw LogicError(strf("component '", name_, "': no reference at ", index));
  }
  const Link& link = links_[index];
  if (link.target == nullptr) throw_unwired(info_->references[index].name);
  if (!link.target->started()) link.target->throw_stopped(*link.service);
  return *link.target;
}

bool Component::wired(const std::string& reference) const {
  const PortSpec* ref = info_ != nullptr ? info_->find_reference(reference) : nullptr;
  return ref != nullptr &&
         links_[static_cast<std::size_t>(ref - info_->references.data())].target !=
             nullptr;
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
