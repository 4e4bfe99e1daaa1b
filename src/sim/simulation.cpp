#include "rcs/sim/simulation.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::sim {

Simulation::LoopObserver::LoopObserver(obs::MetricsRegistry& metrics)
    : events_(metrics.counter("sim.events")),
      queue_depth_(metrics.histogram("sim.queue_depth")) {}

void Simulation::LoopObserver::on_event(Time /*now*/, std::size_t queue_depth) {
  ++events_;
  queue_depth_.record(static_cast<std::int64_t>(queue_depth));
}

Simulation::Simulation(std::uint64_t seed)
    : network_(*this), rng_(seed), loop_observer_(metrics_) {
  log().set_time_source([this] { return loop_.now(); });
  loop_.set_hook(&loop_observer_);
  fsim_.bind_metrics(&metrics_);
}

Simulation::~Simulation() { log().reset_time_source(); }

Host& Simulation::add_host(std::string name) {
  const HostId id{static_cast<std::uint32_t>(hosts_.size())};
  tracer_.set_host_name(id.value(), name);
  hosts_.push_back(std::make_unique<Host>(*this, id, std::move(name)));
  return *hosts_.back();
}

Host& Simulation::host(HostId id) {
  if (id.value() >= hosts_.size()) {
    throw SimError(strf("Simulation::host: unknown host ", id));
  }
  return *hosts_[id.value()];
}

const Host& Simulation::host(HostId id) const {
  if (id.value() >= hosts_.size()) {
    throw SimError(strf("Simulation::host: unknown host ", id));
  }
  return *hosts_[id.value()];
}

}  // namespace rcs::sim
