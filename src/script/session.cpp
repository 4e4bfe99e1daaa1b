#include "rcs/script/session.hpp"

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::script {

ReconfigSession::~ReconfigSession() {
  // An abandoned session must not leave partial modifications behind.
  if (!finished()) rollback();
}

void ReconfigSession::count(Verb verb) {
  ++op_count_;
  ++ops_by_verb_[static_cast<std::size_t>(verb)];
}

void ReconfigSession::add(const std::string& type_name,
                          const std::string& instance_name) {
  composite_.add(type_name, instance_name);
  count(Verb::kAdd);
  journal_.push_back({.kind = Undo::Kind::kRemove, .name = instance_name});
}

void ReconfigSession::remove(const std::string& instance_name) {
  // Capture enough state to resurrect the component on rollback. The
  // composite enforces that a removable component is stopped and unwired,
  // so type + properties fully describe it.
  const comp::Component& component = composite_.child(instance_name);
  Undo record{.kind = Undo::Kind::kRevive,
              .name = instance_name,
              .key = component.type_name(),
              .value = component.properties()};
  composite_.remove(instance_name);
  count(Verb::kRemove);
  journal_.push_back(std::move(record));
}

void ReconfigSession::start(const std::string& instance_name) {
  const bool was_started = composite_.child(instance_name).started();
  composite_.start(instance_name);
  count(Verb::kStart);
  if (!was_started) {
    journal_.push_back({.kind = Undo::Kind::kStop, .name = instance_name});
  }
}

void ReconfigSession::stop(const std::string& instance_name) {
  const bool was_started = composite_.child(instance_name).started();
  composite_.stop(instance_name);
  count(Verb::kStop);
  if (was_started) {
    journal_.push_back({.kind = Undo::Kind::kStart, .name = instance_name});
  }
}

void ReconfigSession::wire(const std::string& from, const std::string& reference,
                           const std::string& to, const std::string& service) {
  composite_.wire(from, reference, to, service);
  count(Verb::kWire);
  journal_.push_back(
      {.kind = Undo::Kind::kUnwire, .name = from, .key = reference});
}

void ReconfigSession::unwire(const std::string& from,
                             const std::string& reference) {
  // The composite hands back the removed wire's target, so rollback can
  // restore the exact wire. Throws if the reference was not wired.
  comp::Composite::Wire removed = composite_.unwire(from, reference);
  count(Verb::kUnwire);
  journal_.push_back({.kind = Undo::Kind::kWire,
                      .name = from,
                      .key = reference,
                      .to = std::move(removed.to_component),
                      .service = std::move(removed.service)});
}

void ReconfigSession::set_property(const std::string& instance_name,
                                   const std::string& key, Value value) {
  // A key the component did not have is erased on rollback, not left
  // holding null.
  const ValueMap& properties = composite_.child(instance_name).properties().as_map();
  const auto old = properties.find(key);
  Undo record{.kind = old == properties.end() ? Undo::Kind::kEraseProperty
                                              : Undo::Kind::kRestoreProperty,
              .name = instance_name,
              .key = key};
  if (old != properties.end()) record.value = old->second;
  composite_.set_property(instance_name, key, std::move(value));
  count(Verb::kSet);
  journal_.push_back(std::move(record));
}

void ReconfigSession::undo(Undo& record) {
  switch (record.kind) {
    case Undo::Kind::kRemove:
      composite_.remove(record.name);
      return;
    case Undo::Kind::kRevive: {
      comp::Component& revived = composite_.add(record.key, record.name);
      for (const auto& [key, value] : record.value.as_map()) {
        revived.set_property(key, value);
      }
      return;
    }
    case Undo::Kind::kStart:
      composite_.start(record.name);
      return;
    case Undo::Kind::kStop:
      composite_.stop(record.name);
      return;
    case Undo::Kind::kWire:
      composite_.wire(record.name, record.key, record.to, record.service);
      return;
    case Undo::Kind::kUnwire:
      composite_.unwire(record.name, record.key);
      return;
    case Undo::Kind::kRestoreProperty:
      composite_.set_property(record.name, record.key, std::move(record.value));
      return;
    case Undo::Kind::kEraseProperty:
      composite_.child(record.name).erase_property(record.key);
      return;
  }
}

void ReconfigSession::commit() {
  ensure(!finished(), "ReconfigSession::commit: session already finished");
  const Status status = composite_.validate();
  if (!status.is_ok()) {
    rollback();
    throw ScriptException(strf("integrity constraint violated: ",
                               status.message(), " (transaction rolled back)"));
  }
  committed_ = true;
  log().debug("script", composite_.name(), ": committed ", op_count_,
              " reconfiguration op(s)");
}

void ReconfigSession::rollback() {
  if (finished()) return;
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) undo(*it);
  journal_.clear();
  rolled_back_ = true;
  log().debug("script", composite_.name(), ": rolled back ", op_count_,
              " reconfiguration op(s)");
}

}  // namespace rcs::script
