// Isolated per-layer replays for the traced run.
//
// A workload records what it pushed through the system — application
// requests and replies, the deployments and transitions it ran, the mean
// message sizes on its links — and these replays time the public call of one
// layer at a time on exactly those inputs, away from the rest of the stack:
// Value::encode and fnv1a (common), AppServerBase::with_checksum (app),
// Component::invoke on a standalone app.kvstore (component + app compute),
// parse_http_request and json_of (gateway), Network::send plus dispatch on a
// bare Simulation (sim), package install (component), and script::parse /
// script::Interpreter (script).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "rcs/common/value.hpp"
#include "rcs/core/adaptation_engine.hpp"
#include "rcs/ftm/config.hpp"

namespace e2e {

/// One adaptation the workload ran, replayed through the repository's own
/// package builder.
struct Adaptation {
  enum class Kind { kDeploy, kTransition, kRefresh };
  Kind kind{Kind::kDeploy};
  rcs::ftm::FtmConfig from;  // transitions only
  rcs::ftm::FtmConfig to;    // the target (or current FTM for a refresh)
  std::string slot;          // refreshes only

  static Adaptation deploy(const rcs::ftm::FtmConfig& config) {
    Adaptation a;
    a.to = config;
    return a;
  }
  static Adaptation transition(const rcs::ftm::FtmConfig& from,
                               const rcs::ftm::FtmConfig& to) {
    Adaptation a;
    a.kind = Kind::kTransition;
    a.from = from;
    a.to = to;
    return a;
  }
  static Adaptation refresh(const rcs::ftm::FtmConfig& config,
                            std::string slot) {
    Adaptation a;
    a.kind = Kind::kRefresh;
    a.to = config;
    a.slot = std::move(slot);
    return a;
  }
};

struct LayerInputs {
  /// Application requests as the kvstore receives them ({"op", "key", ...}).
  std::vector<rcs::Value> requests;
  /// Replies the workload received (reply maps or result maps).
  std::vector<rcs::Value> replies;
  std::vector<Adaptation> adaptations;
  /// Mean wire size of the messages on each link the workload used.
  std::vector<std::size_t> message_sizes;

  /// Keep at most this many recorded values of each kind.
  static constexpr std::size_t kCap = 2048;
  void record_request(const rcs::Value& v) {
    if (requests.size() < kCap) requests.push_back(v);
  }
  void record_reply(const rcs::Value& v) {
    if (replies.size() < kCap) replies.push_back(v);
  }
};

/// Run every replay on `inputs` and append the resulting per-layer metrics
/// (common.value_encode_ns, common.fnv1a_ns, app.checksum_ns,
/// component.invoke_ns, gateway.http_parse_ns, gateway.json_of_ns,
/// sim.send_deliver_ns, component.install_us, script.parse_us,
/// script.exec_us) to result.layers.
void replay_layers(const LayerInputs& inputs, Result& result);

/// The HTTP request the gateway turns into `request` ({"op", "key", ...}):
/// GET /kv/{k}, POST /kv/{k} or POST /kv/{k}/incr.
[[nodiscard]] std::string http_request_for(const rcs::Value& request);

/// The results a standalone app.kvstore gives to `requests`, in order.
[[nodiscard]] std::vector<rcs::Value> kvstore_results(
    const std::vector<rcs::Value>& requests);

/// Adaptation figures of the deployments and transitions a workload ran:
/// mean component.package_bytes and component.shipped per report, and
/// core.engine_virt_ms.p50 of TransitionReport::engine_total. The last is a
/// per_layer+ figure: it is virtual time and may read the same for every
/// seed.
void add_report_layers(const std::vector<rcs::core::TransitionReport>& reports,
                       Result& result);

/// Median over `passes` timed passes of `body(i)` for i in [0, n), in ns
/// per call. Each pass runs inside a span named `name` of layer `layer`.
template <typename F>
double time_per_call_ns(const char* name, const char* layer, std::size_t n,
                        F&& body, int passes = 7) {
  if (n == 0) return 0.0;
  std::vector<double> per_call;
  for (int pass = 0; pass < passes; ++pass) {
    Span span(name, layer);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body(i);
    per_call.push_back(seconds_since(start) * 1e9 / static_cast<double>(n));
  }
  return median(per_call);
}

}  // namespace e2e
