// Simulation umbrella: clock + network + hosts + seeded randomness.
//
// This replaces the paper's physical testbed (two PCs on a LAN plus the
// system-manager workstation). Construct a Simulation, add hosts, deploy the
// component runtimes and FTMs on them, then drive virtual time with run()/
// run_for(). Constructing a Simulation installs its virtual clock as the
// logging time source; destruction restores the previous source.
//
// One Simulation is one sequential world: one timer wheel, one rng stream
// and one network, so a run is a pure function of its seed. Parallelism
// lives above it — independent simulations on separate threads (e.g.
// chaos_runner --jobs runs one campaign per worker).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rcs/common/ids.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/fsim/fsim.hpp"
#include "rcs/obs/metrics.hpp"
#include "rcs/obs/trace.hpp"
#include "rcs/sim/event_loop.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/network.hpp"
#include "rcs/sim/time.hpp"

namespace rcs::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- Topology -----------------------------------------------------------
  Host& add_host(std::string name);
  [[nodiscard]] Host& host(HostId id);
  [[nodiscard]] const Host& host(HostId id) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  Network& network() { return network_; }

  // --- Time ---------------------------------------------------------------
  [[nodiscard]] Time now() const { return loop_.now(); }
  EventLoop& loop() { return loop_; }

  TimerId schedule_after(Duration delay, EventLoop::Action action,
                         std::string_view label = {}) {
    return loop_.schedule_after(delay, std::move(action), label);
  }
  TimerId schedule_at(Time at, EventLoop::Action action,
                      std::string_view label = {}) {
    return loop_.schedule_at(at, std::move(action), label);
  }

  /// Drain to empty (or max_events).
  std::size_t run(std::size_t max_events = 0) { return loop_.run(max_events); }
  std::size_t run_for(Duration d) { return run_until(now() + d); }
  std::size_t run_until(Time t) { return loop_.run_until(t); }

  Rng& rng() { return rng_; }

  // --- Observability ------------------------------------------------------
  /// Per-simulation trace recorder. Disabled by default; enabling it makes
  /// every instrumentation site in the stack start recording spans.
  obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

  /// Per-simulation metrics registry; kernels/agents bind their counter
  /// blocks here so one export covers the whole deployment.
  obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Fault-simulation point registry (KEDR model). Disabled by default;
  /// chaos campaigns enable it, reseed it from the campaign seed, and arm
  /// scenario indicators through the FaultInjector.
  fsim::Registry& fsim() { return fsim_; }
  [[nodiscard]] const fsim::Registry& fsim() const { return fsim_; }

 private:
  // Feeds scheduler activity into the metrics registry (event count plus a
  // queue-depth histogram); lives here so EventLoop stays obs-agnostic.
  class LoopObserver final : public EventLoop::Hook {
   public:
    explicit LoopObserver(obs::MetricsRegistry& metrics);
    void on_event(Time now, std::size_t queue_depth) override;

   private:
    obs::Counter events_;
    obs::Histogram queue_depth_;
  };

  EventLoop loop_;
  Network network_;
  Rng rng_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  fsim::Registry fsim_;
  LoopObserver loop_observer_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace rcs::sim
