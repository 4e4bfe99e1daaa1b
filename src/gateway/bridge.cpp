#include "rcs/gateway/bridge.hpp"

#include <chrono>
#include <cstdio>

#include "rcs/common/logging.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/gateway/http.hpp"

namespace rcs::gateway {

namespace {

/// Scope stamped on metrics frames (and /metrics bodies).
constexpr const char* kMetricsScope = "gateway";

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_client_snapshot(std::string& out,
                            const ftm::Client::Stats::Snapshot& snap,
                            std::size_t outstanding) {
  out += "{\"sent\":";
  out += std::to_string(snap.sent);
  out += ",\"ok\":";
  out += std::to_string(snap.ok);
  out += ",\"errors\":";
  out += std::to_string(snap.errors);
  out += ",\"retries\":";
  out += std::to_string(snap.retries);
  out += ",\"gave_up\":";
  out += std::to_string(snap.gave_up);
  out += ",\"outstanding\":";
  out += std::to_string(outstanding);
  out += ",\"mean_latency_ms\":";
  append_double(out, snap.mean_latency_ms());
  out += ",\"last_latency_ms\":";
  append_double(out, sim::to_ms(snap.last_latency));
  out += '}';
}

}  // namespace

SimBridge::SimBridge(core::ResilientSystem& system, BridgeOptions options)
    : system_(system), options_(std::move(options)) {
  queue_.set_capacity(options_.queue_capacity);
  rejected_counter_ = system_.sim().metrics().counter("gateway.queue.rejected");
  host_ = &system_.sim().add_host("gateway");
  std::vector<HostId> replicas;
  for (std::size_t i = 0; i < system_.replica_count(); ++i) {
    replicas.push_back(system_.replica(i).id());
  }
  client_ = std::make_unique<ftm::Client>(*host_, std::move(replicas));
  sim_now_us_.store(static_cast<std::uint64_t>(system_.sim().now()),
                    std::memory_order_relaxed);
}

void SimBridge::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
}

std::string SimBridge::latest_status() const {
  std::lock_guard<std::mutex> lock(published_mutex_);
  return latest_status_;
}

std::string SimBridge::latest_metrics() const {
  std::lock_guard<std::mutex> lock(published_mutex_);
  return latest_metrics_;
}

std::string SimBridge::groups_json() const {
  std::lock_guard<std::mutex> lock(published_mutex_);
  return latest_groups_;
}

void SimBridge::execute(Command& command) {
  switch (command.kind) {
    case Command::Kind::kRequest: {
      const std::uint64_t ticket = command.ticket;
      client_->send(std::move(command.request),
                    [this, ticket](const Value& reply) {
                      board_.post(ticket, reply);
                    });
      break;
    }
    case Command::Kind::kAdapt: {
      const std::uint64_t ticket = command.ticket;
      if (system_.engine().busy()) {
        board_.post(ticket,
                    Value::map().set("error", "adaptation engine busy"));
        return;
      }
      try {
        const auto& target = ftm::FtmConfig::by_name(command.target);
        system_.engine().transition(
            target, [this, ticket](const core::TransitionReport& report) {
              Value summary = Value::map()
                                  .set("ok", report.ok)
                                  .set("kind", report.kind)
                                  .set("from", report.from)
                                  .set("to", report.to)
                                  .set("engine_total_ms",
                                       sim::to_ms(report.engine_total))
                                  .set("package_bytes",
                                       static_cast<std::int64_t>(
                                           report.package_bytes));
              board_.post(ticket, std::move(summary));
            });
      } catch (const std::exception& error) {
        board_.post(ticket, Value::map().set("error", error.what()));
      }
      break;
    }
  }
}

void SimBridge::drain_and_inject() {
  queue_.drain(drained_);
  for (auto& command : drained_) {
    execute(command);
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  drained_.clear();
}

void SimBridge::step_quantum() {
  auto& sim = system_.sim();
  drain_and_inject();
  sim.run_until(sim.now() + options_.quantum);
  sim_now_us_.store(static_cast<std::uint64_t>(sim.now()),
                    std::memory_order_relaxed);
}

std::uint64_t SimBridge::run(sim::Time until) {
  auto& sim = system_.sim();
  const std::uint64_t processed_before = sim.loop().processed();
  const auto wall_start = std::chrono::steady_clock::now();
  const sim::Time virt_start = sim.now();
  last_frame_at_ = sim.now();
  next_snapshot_ = sim.now();  // first frame immediately

  const auto stop_requested = [&] {
    return stop_.load(std::memory_order_acquire) ||
           (external_stop_ != nullptr &&
            external_stop_->load(std::memory_order_acquire));
  };

  while (!stop_requested()) {
    if (until != 0 && sim.now() >= until) break;
    if (sim.now() >= next_snapshot_) {
      publish_snapshot();
      next_snapshot_ += options_.snapshot_every;
    }
    step_quantum();
    if (options_.speed > 0.0) {
      const auto virtual_elapsed =
          static_cast<double>(sim.now() - virt_start) / options_.speed;
      const auto deadline =
          wall_start + std::chrono::microseconds(
                           static_cast<std::int64_t>(virtual_elapsed));
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_until(lock, deadline, [&] { return stop_requested(); });
    }
  }
  publish_snapshot();  // final frame so late dashboards see the end state
  board_.close();      // outstanding tickets fail fast at the edge
  return sim.loop().processed() - processed_before;
}

std::string SimBridge::build_groups_json() const {
  const auto& engine = system_.engine();
  std::string out = "{\"groups\":[{\"name\":\"group0\",\"app\":";
  append_json_string(out, engine.app().type_name);
  out += ",\"ftm\":";
  append_json_string(out, engine.current().name);
  out += ",\"delta_checkpoint\":";
  out += engine.current().delta_checkpoint ? "true" : "false";
  out += ",\"busy\":";
  out += engine.busy() ? "true" : "false";
  out += ",\"request_rate\":";
  append_double(out, system_.monitoring().request_rate());
  out += ",\"replicas\":[";
  for (std::size_t i = 0; i < system_.replica_count(); ++i) {
    const auto& replica = system_.replica(i);
    if (i != 0) out += ',';
    out += "{\"host\":";
    out += std::to_string(static_cast<std::uint64_t>(replica.id().value()));
    out += ",\"name\":";
    append_json_string(out, replica.name());
    out += ",\"alive\":";
    out += replica.alive() ? "true" : "false";
    out += '}';
  }
  out += "]}]}";
  return out;
}

std::string SimBridge::build_status_frame() {
  auto& sim = system_.sim();
  ++frame_seq_;

  // Bounded copies only on this (the simulation) thread: the snapshots are
  // fixed-size structs, no allocation until the JSON is rendered below.
  const auto gateway_snap = client_->stats().snapshot();
  load::ClientFleet::Snapshot fleet_snap;
  if (fleet_ != nullptr) fleet_snap = fleet_->snapshot();

  std::string out = "{\"type\":\"status\",\"seq\":";
  out += std::to_string(frame_seq_);
  out += ",\"sim_now_us\":";
  out += std::to_string(sim.now());
  out += ",\"quantum_us\":";
  out += std::to_string(options_.quantum);
  out += ",\"speed\":";
  append_double(out, options_.speed);
  out += ",\"events_processed\":";
  out += std::to_string(sim.loop().processed());
  out += ",\"queue_depth\":";
  out += std::to_string(sim.loop().pending());

  out += ",\"gateway\":";
  append_client_snapshot(out, gateway_snap, client_->outstanding());
  out += ",\"commands\":{\"pending\":";
  out += std::to_string(queue_.depth());
  out += ",\"enqueued\":";
  out += std::to_string(queue_.enqueued_total());
  out += ",\"rejected\":";
  out += std::to_string(queue_.rejected_total());
  out += ",\"injected\":";
  out += std::to_string(injected_.load(std::memory_order_relaxed));
  out += ",\"completed\":";
  out += std::to_string(board_.posted_total());
  out += '}';

  std::uint64_t ok_now = gateway_snap.ok;
  if (fleet_ != nullptr) {
    out += ",\"fleet\":{\"clients\":";
    out += std::to_string(fleet_->size());
    out += ",\"sent\":";
    out += std::to_string(fleet_snap.totals.sent);
    out += ",\"ok\":";
    out += std::to_string(fleet_snap.totals.ok);
    out += ",\"errors\":";
    out += std::to_string(fleet_snap.totals.errors);
    out += ",\"gave_up\":";
    out += std::to_string(fleet_snap.totals.gave_up);
    out += ",\"retries\":";
    out += std::to_string(fleet_snap.totals.retries);
    out += ",\"outstanding\":";
    out += std::to_string(fleet_snap.outstanding);
    out += ",\"mean_latency_ms\":";
    const double fleet_mean =
        fleet_snap.totals.latency_count == 0
            ? 0.0
            : sim::to_ms(fleet_snap.totals.latency_total) /
                  static_cast<double>(fleet_snap.totals.latency_count);
    append_double(out, fleet_mean);
    out += '}';
    ok_now += fleet_snap.totals.ok;
  }

  // Windowed service throughput: ok replies since the previous frame over
  // the virtual window (matches what an operator means by "rps right now").
  const sim::Duration window = sim.now() - last_frame_at_;
  const std::uint64_t window_ok = ok_now - last_ok_;
  out += ",\"throughput\":{\"window_ok\":";
  out += std::to_string(window_ok);
  out += ",\"window_us\":";
  out += std::to_string(window);
  out += ",\"ok_per_s\":";
  append_double(out, window <= 0 ? 0.0
                                 : static_cast<double>(window_ok) *
                                       static_cast<double>(sim::kSecond) /
                                       static_cast<double>(window));
  out += '}';
  last_ok_ = ok_now;
  last_frame_at_ = sim.now();

  // Group roster (inlined, same shape /groups serves).
  const std::string groups = build_groups_json();
  out += ",\"groups\":";
  out.append(groups, 10, groups.size() - 11);  // strip {"groups": ... }

  // Transition + trigger events since the last frame, in-order.
  out += ",\"events\":[";
  bool first = true;
  const auto& history = system_.manager().history();
  for (std::size_t i = seen_history_; i < history.size(); ++i) {
    const auto& entry = history[i];
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"transition\",\"at_us\":";
    out += std::to_string(entry.at);
    out += ",\"cause\":";
    append_json_string(out, entry.cause);
    out += ",\"decision\":";
    append_json_string(out, core::to_string(entry.decision));
    out += ",\"from\":";
    append_json_string(out, entry.from);
    out += ",\"to\":";
    append_json_string(out, entry.to);
    out += ",\"executed\":";
    out += entry.executed ? "true" : "false";
    out += '}';
  }
  seen_history_ = history.size();
  const auto& triggers = system_.monitoring().trigger_log();
  for (std::size_t i = seen_triggers_; i < triggers.size(); ++i) {
    const auto& trigger = triggers[i];
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"trigger\",\"at_us\":";
    out += std::to_string(trigger.at);
    out += ",\"trigger\":";
    append_json_string(out, core::to_string(trigger.kind));
    out += ",\"measured\":";
    append_double(out, trigger.measured);
    out += ",\"detail\":";
    append_json_string(out, trigger.detail);
    out += '}';
  }
  seen_triggers_ = triggers.size();
  out += "]}";
  return out;
}

void SimBridge::publish_snapshot() {
  // Fold edge-side rejections into the metrics registry from this (the sim)
  // thread; the registry is not written from server threads.
  const std::uint64_t rejected = queue_.rejected_total();
  if (rejected > seen_rejected_) {
    rejected_counter_.add(rejected - seen_rejected_);
    seen_rejected_ = rejected;
  }
  const std::string status = build_status_frame();
  const std::string groups = build_groups_json();
  // Metrics ride the same serialization path as the --metrics-out file
  // exports (obs::snapshot_json), wrapped in a one-field frame.
  std::string metrics =
      obs::snapshot_json(system_.sim().metrics(), kMetricsScope);
  std::string metrics_frame = "{\"type\":\"metrics\",\"scope\":";
  append_json_string(metrics_frame, kMetricsScope);
  metrics_frame += ",\"lines\":";
  append_json_string(metrics_frame, metrics);
  metrics_frame += '}';

  {
    std::lock_guard<std::mutex> lock(published_mutex_);
    latest_status_ = status;
    latest_groups_ = groups;
    latest_metrics_ = std::move(metrics);
  }
  if (publisher_) {
    publisher_(status);
    publisher_(metrics_frame);
  }
}

}  // namespace rcs::gateway
