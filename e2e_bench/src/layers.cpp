#include "layers.hpp"

#include <exception>
#include <memory>

#include "rcs/app/app_base.hpp"
#include "rcs/app/apps.hpp"
#include "rcs/common/bytes.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/component/package.hpp"
#include "rcs/core/repository.hpp"
#include "rcs/gateway/http.hpp"
#include "rcs/script/interpreter.hpp"
#include "rcs/script/parser.hpp"
#include "rcs/sim/simulation.hpp"

namespace e2e {

using rcs::Value;

namespace {

/// Keep the optimizer from discarding a replayed call's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

rcs::core::TransitionPackage package_for(rcs::core::Repository& repository,
                                         const Adaptation& a,
                                         const rcs::ftm::AppSpec& app) {
  switch (a.kind) {
    case Adaptation::Kind::kDeploy:
      return repository.full_package(a.to, app);
    case Adaptation::Kind::kTransition:
      return repository.transition_package(a.from, a.to, app);
    case Adaptation::Kind::kRefresh:
      return repository.refresh_package(a.to, a.slot, app);
  }
  return {};
}

/// A standalone replica host with every registered type installed, for
/// executing scripts outside any deployment.
struct ScriptBench {
  rcs::sim::Simulation sim{1};
  rcs::sim::Host& host{sim.add_host("replica0")};
  rcs::sim::Host& peer{sim.add_host("replica1")};
  rcs::comp::HostLibrary library;

  ScriptBench() {
    library.install_all(rcs::comp::ComponentRegistry::instance());
  }

  std::unique_ptr<rcs::comp::Composite> fresh() {
    return std::make_unique<rcs::comp::Composite>(
        "ftm@replica0", rcs::comp::CompositeEnv{&host, &library, nullptr});
  }

  [[nodiscard]] Value deploy_bindings() const {
    return Value::map()
        .set("role", "primary")
        .set("peers", Value::list().push_back(
                          static_cast<std::int64_t>(peer.id().value())))
        .set("master", static_cast<std::int64_t>(host.id().value()));
  }
};

}  // namespace

std::string http_request_for(const Value& request) {
  const std::string& op = request.at("op").as_string();
  const std::string& key = request.at("key").as_string();
  if (op == "get") return "GET /kv/" + key + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  const std::string body =
      std::to_string(op == "put" ? request.at("value").as_int()
                                 : request.get_or("by", 1).as_int());
  return "POST /kv/" + key + (op == "incr" ? "/incr" : "") +
         " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<Value> kvstore_results(const std::vector<Value>& requests) {
  rcs::app::register_components();
  rcs::comp::Composite composite("bench.app");
  composite.add(rcs::app::kKvStore, "app");
  composite.start("app");
  std::vector<Value> results;
  for (const auto& request : requests) {
    results.push_back(composite.invoke("app", "srv", "process",
                                       Value::map().set("request", request))
                          .at("result"));
  }
  return results;
}

void add_report_layers(const std::vector<rcs::core::TransitionReport>& reports,
                       Result& result) {
  std::vector<double> engine_ms;
  double package_bytes = 0.0;
  double shipped = 0.0;
  for (const auto& report : reports) {
    engine_ms.push_back(static_cast<double>(report.engine_total) / 1e3);
    package_bytes += static_cast<double>(report.package_bytes);
    shipped += report.components_shipped;
  }
  const double n = reports.empty() ? 1.0 : static_cast<double>(reports.size());
  result.layer_extra.push_back(
      {"core.engine_virt_ms.p50", median(engine_ms), "ms"});
  result.layers.push_back({"component.package_bytes", package_bytes / n, "B"});
  result.layers.push_back({"component.shipped", shipped / n, "count"});
}

void replay_layers(const LayerInputs& inputs, Result& result) {
  rcs::app::register_components();
  const auto add = [&result](const char* name, double value, const char* unit) {
    result.layers.push_back({name, value, unit});
  };

  // --- common: wire encoding and the digest every checksum uses.
  std::vector<Value> values = inputs.requests;
  values.insert(values.end(), inputs.replies.begin(), inputs.replies.end());
  add("common.value_encode_ns",
      time_per_call_ns("replay Value::encode", "common", values.size(),
                       [&](std::size_t i) { keep(values[i].encode()); }),
      "ns");
  std::vector<rcs::Bytes> encoded;
  for (const auto& v : values) encoded.push_back(v.encode());
  add("common.fnv1a_ns",
      time_per_call_ns("replay fnv1a", "common", encoded.size(),
                       [&](std::size_t i) { keep(rcs::fnv1a(encoded[i])); }),
      "ns");

  // --- component (+ app compute): dynamic invocation of a standalone
  // kvstore, outside any FTM.
  rcs::comp::Composite app_host("bench.app");
  app_host.add(rcs::app::kKvStore, "app");
  app_host.start("app");
  std::vector<Value> invoke_args;
  for (const auto& request : inputs.requests) {
    invoke_args.push_back(Value::map().set("request", request));
  }
  const std::vector<Value> results = kvstore_results(inputs.requests);
  add("component.invoke_ns",
      time_per_call_ns("replay Component::invoke", "component",
                       invoke_args.size(),
                       [&](std::size_t i) {
                         keep(app_host.invoke("app", "srv", "process",
                                              invoke_args[i]));
                       }),
      "ns");

  // --- app: the executable-assertion checksum stamped on every result.
  add("app.checksum_ns",
      time_per_call_ns("replay AppServerBase::with_checksum", "app",
                       results.size(),
                       [&](std::size_t i) {
                         keep(rcs::app::AppServerBase::with_checksum(
                             results[i]));
                       }),
      "ns");

  // --- gateway: the edge's request parser on the HTTP form of each
  // recorded request, and its JSON rendering of each reply.
  std::vector<std::string> http;
  for (const auto& request : inputs.requests) {
    http.push_back(http_request_for(request));
  }
  add("gateway.http_parse_ns",
      time_per_call_ns("replay parse_http_request", "gateway", http.size(),
                       [&](std::size_t i) {
                         rcs::gateway::HttpRequest parsed;
                         std::size_t consumed = 0;
                         if (rcs::gateway::parse_http_request(
                                 http[i], parsed, consumed) !=
                             rcs::gateway::ParseStatus::kOk) {
                           result.fail("recorded request is not valid HTTP");
                         }
                       }),
      "ns");
  add("gateway.json_of_ns",
      time_per_call_ns("replay json_of", "gateway", results.size(),
                       [&](std::size_t i) {
                         keep(rcs::gateway::json_of(results[i]));
                       }),
      "ns");

  // --- sim: one send plus its delivery dispatch on a bare two-host
  // simulation, at the workload's message sizes.
  {
    rcs::sim::Simulation sim(1);
    auto& from = sim.add_host("a");
    auto& to = sim.add_host("b");
    const rcs::MsgType type("bench.replay");
    std::uint64_t delivered = 0;
    to.register_handler(type, [&delivered](const rcs::sim::Message&) {
      ++delivered;
    });
    std::vector<Value> payloads;
    for (const std::size_t size : inputs.message_sizes) {
      payloads.emplace_back(rcs::Bytes(size, 0x5A));
    }
    constexpr std::size_t kBatch = 64;
    const std::size_t n = payloads.empty() ? 0 : kBatch * payloads.size();
    add("sim.send_deliver_ns",
        time_per_call_ns("replay Network::send+dispatch", "sim", n ? 1 : 0,
                         [&](std::size_t) {
                           for (std::size_t k = 0; k < kBatch; ++k) {
                             for (const auto& p : payloads) {
                               from.send(to.id(), type, p);
                             }
                           }
                           sim.run();
                         }) /
            static_cast<double>(n ? n : 1),
        "ns");
    if (n > 0 && delivered == 0) result.fail("sim replay delivered nothing");
  }

  // --- component install, script parse and script execution, on the
  // packages of the adaptations the workload ran.
  rcs::sim::Simulation repo_sim(1);
  rcs::core::Repository repository(repo_sim.add_host("repository"));
  const auto app = rcs::app::spec_for(rcs::app::kKvStore);
  std::vector<rcs::core::TransitionPackage> packages;
  for (const auto& a : inputs.adaptations) {
    packages.push_back(package_for(repository, a, app));
  }
  add("component.install_us",
      time_per_call_ns("replay HostLibrary::install", "component",
                       packages.size(),
                       [&](std::size_t i) {
                         rcs::comp::HostLibrary library;
                         const auto status =
                             library.install(packages[i].components);
                         if (!status.is_ok()) {
                           result.fail("package install failed");
                         }
                       }) /
          1e3,
      "us");
  add("script.parse_us",
      time_per_call_ns("replay script::parse", "script", packages.size(),
                       [&](std::size_t i) {
                         keep(rcs::script::parse(packages[i].script));
                       }) /
          1e3,
      "us");

  // Execution needs the composite in the pre-adaptation state, which is
  // rebuilt (untimed) before every timed run.
  double exec_us = 0.0;
  try {
    ScriptBench bench;
    std::vector<rcs::script::Script> parsed;
    std::vector<std::string> setup_scripts;
    for (std::size_t i = 0; i < packages.size(); ++i) {
      parsed.push_back(rcs::script::parse(packages[i].script));
      const auto& a = inputs.adaptations[i];
      if (a.kind == Adaptation::Kind::kDeploy) {
        setup_scripts.emplace_back();
      } else {
        const auto& base =
            a.kind == Adaptation::Kind::kTransition ? a.from : a.to;
        setup_scripts.push_back(repository.full_package(base, app).script);
      }
    }
    const Value bindings = bench.deploy_bindings();
    std::vector<double> per_call;
    for (int pass = 0; pass < 5 && !parsed.empty(); ++pass) {
      double total_s = 0.0;
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        auto composite = bench.fresh();
        const bool deploy = setup_scripts[i].empty();
        if (!deploy) {
          rcs::script::Interpreter::run_source(setup_scripts[i], *composite,
                                               bindings);
        }
        Span span("replay script::Interpreter::run", "script");
        const auto start = Clock::now();
        keep(rcs::script::Interpreter::run(parsed[i], *composite,
                                           deploy ? bindings : Value::map()));
        total_s += seconds_since(start);
      }
      per_call.push_back(total_s * 1e6 / static_cast<double>(parsed.size()));
    }
    exec_us = median(per_call);
  } catch (const std::exception& e) {
    result.notes.push_back(std::string("script.exec_us: replay failed: ") +
                           e.what());
  }
  add("script.exec_us", exec_us, "us");

  result.notes.push_back(
      "app: AppServerBase::compute is protected, so app compute stays inside "
      "component.invoke_ns; app.checksum_ns times the public "
      "AppServerBase::with_checksum");
  result.notes.push_back(
      "ftm: kernel and bricks have no public per-request entry point; "
      "request_path splits ftm.op_wall_us.p50 and ftm.allocs_per_op per FTM");
  result.notes.push_back(
      "load, gateway (sockets): only fleet_ladder and fleet_failover drive a "
      "ClientFleet (load.*) and only gateway_http crosses real sockets "
      "(gateway.wall_us.*)");
}

}  // namespace e2e
