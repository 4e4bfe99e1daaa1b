// request_path: closed loop, one outstanding request per system.
//
// Three ResilientSystems — PBR with delta checkpoints, LFR and TR, two
// replicas each, monitoring off — take requests round-robin through
// ResilientSystem::roundtrip: a seeded mix of 60% incr, 20% get and 20% put
// over 64 keys. Every reply is checked against a reference KV model of its
// system. This is where Value, component, kernel, brick and app costs live;
// no script or package work happens after setup.
#include <map>
#include <memory>

#include "rcs/app/app_base.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/core/system.hpp"
#include "workloads.hpp"

namespace e2e {

using rcs::Value;

namespace {

constexpr int kSetups = 9;
constexpr std::size_t kWarmupPerSystem = 100;
/// Operations per timed slice (and in the counted segment).
constexpr std::size_t kSliceOps = 3000;
/// Operations between two host-speed reference passes.
constexpr std::size_t kReferenceEvery = 300;
constexpr std::int64_t kKeys = 64;

const char* const kFtmNames[] = {"PBR", "LFR", "TR"};

struct Op {
  enum class Kind { kIncr, kGet, kPut } kind{Kind::kIncr};
  std::string key;
  std::int64_t arg{0};  // incr amount or put value
  Value request;
};

Op next_op(rcs::Rng& rng) {
  Op op;
  const double pick = rng.uniform();
  op.key = std::string("k").append(
      std::to_string(rng.uniform_int(0, kKeys - 1)));
  if (pick < 0.6) {
    op.kind = Op::Kind::kIncr;
    op.arg = rng.uniform_int(1, 3);
    op.request =
        Value::map().set("op", "incr").set("key", op.key).set("by", op.arg);
  } else if (pick < 0.8) {
    op.kind = Op::Kind::kGet;
    op.request = Value::map().set("op", "get").set("key", op.key);
  } else {
    op.kind = Op::Kind::kPut;
    op.arg = rng.uniform_int(0, 999);
    op.request =
        Value::map().set("op", "put").set("key", op.key).set("value", op.arg);
  }
  return op;
}

/// One protected system plus the reference model of its store.
struct Target {
  std::unique_ptr<rcs::core::ResilientSystem> system;
  std::map<std::string, std::int64_t> model;

  /// Check one reply against the model (and advance the model).
  bool check(const Op& op, const Value& reply) {
    if (!reply.is_map() || reply.has("error") || !reply.has("result")) {
      return false;
    }
    const Value& result = reply.at("result");
    if (!rcs::app::AppServerBase::checksum_ok(result)) return false;
    switch (op.kind) {
      case Op::Kind::kIncr: {
        const std::int64_t want = (model[op.key] += op.arg);
        return result.at("value").as_int() == want;
      }
      case Op::Kind::kGet: {
        const auto it = model.find(op.key);
        if (result.at("found").as_bool() != (it != model.end())) return false;
        return it == model.end() || result.at("value").as_int() == it->second;
      }
      case Op::Kind::kPut:
        model[op.key] = op.arg;
        return result.at("ok").as_bool();
    }
    return false;
  }
};

rcs::core::SystemOptions system_options(std::uint64_t seed) {
  rcs::core::SystemOptions options;
  options.seed = seed;
  options.replica_count = 2;
  options.start_monitoring = false;
  return options;
}

/// Deterministic per-system counters, summed over the three systems.
struct Counters {
  std::uint64_t events{0};
  std::uint64_t link_bytes{0};
  std::uint64_t link_msgs{0};
  std::int64_t cpu_us{0};
  std::uint64_t retries{0};

  static Counters read(std::vector<Target>& targets) {
    Counters c;
    for (auto& t : targets) {
      auto& sys = *t.system;
      c.events += sys.sim().loop().processed();
      const auto link = sys.sim().network().link_stats(sys.replica(0).id(),
                                                       sys.replica(1).id());
      c.link_bytes += link.bytes;
      c.link_msgs += link.messages;
      for (std::size_t r = 0; r < sys.replica_count(); ++r) {
        c.cpu_us += sys.replica(r).meter().cpu_used();
      }
      c.retries += sys.client().stats().retries;
    }
    return c;
  }
};

}  // namespace

void run_request_path(const Options& options, Result& result,
                      LayerInputs& inputs) {
  rcs::Rng rng(options.seed);
  std::vector<Target> targets;
  std::vector<double> deploy_ms;
  std::vector<rcs::core::TransitionReport> deploys;

  const double setup_s = median_setup_s(kSetups, [&](int) {
    targets.clear();
    deploys.clear();
    for (const char* name : kFtmNames) {
      Target t;
      t.system = std::make_unique<rcs::core::ResilientSystem>(
          system_options(options.seed));
      const auto start = Clock::now();
      const auto report =
          t.system->deploy_and_wait(rcs::ftm::FtmConfig::by_name(name));
      deploy_ms.push_back(seconds_since(start) * 1e3);
      if (!report.ok) result.fail(std::string("deploy of ") + name + " failed");
      deploys.push_back(report);
      targets.push_back(std::move(t));
    }
    // Warm-up: untimed requests on each system with the workload's mix.
    rcs::Rng warm(options.seed ^ 0x5eedULL);
    for (std::size_t i = 0; i < kWarmupPerSystem * targets.size(); ++i) {
      Target& t = targets[i % targets.size()];
      Op op = next_op(warm);
      const Value reply = t.system->roundtrip(op.request);
      if (!t.check(op, reply)) result.fail("warm-up reply mismatch");
    }
  });
  for (const char* name : kFtmNames) {
    inputs.adaptations.push_back(
        Adaptation::deploy(rcs::ftm::FtmConfig::by_name(name)));
  }

  std::vector<Op> ops(kSliceOps);
  std::vector<double> op_us(kSliceOps);
  std::vector<double> virt_us;
  std::vector<double> ftm_allocs(targets.size(), 0.0);
  std::vector<std::vector<double>> ftm_p50(targets.size());
  std::vector<std::vector<double>> ftm_us(targets.size());
  Slices slices(options.trace);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);

  // Slice 0 is the counted segment; timed slices follow until the deadline.
  for (std::size_t slice = 0; slice == 0 || Clock::now() < deadline; ++slice) {
    for (auto& op : ops) op = next_op(rng);
    const bool counted = slice == 0;
    const Counters before = counted ? Counters::read(targets) : Counters{};
    AllocCounts allocs{};
    for (auto& v : ftm_us) v.clear();
    slices.begin(slice);
    double wall_s = 0.0;
    for (std::size_t i = 0; i < kSliceOps; ++i) {
      if (i > 0 && i % kReferenceEvery == 0) slices.reference(i);
      const std::size_t which = i % targets.size();
      Target& t = targets[which];
      if (counted) inputs.record_request(ops[i].request);
      const Op& op = ops[i];
      const auto virt0 = t.system->sim().now();
      const AllocCounts a0 = alloc_counts();
      const auto start = Clock::now();
      Value reply;
      {
        Span span("core.ResilientSystem::roundtrip", "core", i);
        reply = t.system->roundtrip(std::move(ops[i].request));
      }
      const double us = seconds_since(start) * 1e6;
      const AllocCounts a1 = alloc_counts();
      wall_s += us / 1e6;
      op_us[i] = us;
      ftm_us[which].push_back(us);
      if (counted) {
        allocs.count += a1.count - a0.count;
        allocs.bytes += a1.bytes - a0.bytes;
        ftm_allocs[which] += static_cast<double>(a1.count - a0.count);
        virt_us.push_back(static_cast<double>(t.system->sim().now() - virt0));
        inputs.record_reply(reply);
      }
      ++result.attempted;
      if (!t.check(op, reply)) result.fail("reply disagrees with the KV model");
    }
    slices.add(slice, kSliceOps, wall_s, op_us);
    if (!slices.traced(slice)) {
      for (std::size_t f = 0; f < targets.size(); ++f) {
        ftm_p50[f].push_back(median(ftm_us[f]));
      }
    }
    if (counted) {
      const Counters after = Counters::read(targets);
      const double n = static_cast<double>(kSliceOps);
      result.e2e.push_back(
          {"allocs_per_op", static_cast<double>(allocs.count) / n, "count"});
      result.layers.push_back(
          {"common.allocs_per_op", static_cast<double>(allocs.count) / n,
           "count"});
      result.layers.push_back({"common.heap_bytes_per_op",
                               static_cast<double>(allocs.bytes) / n, "B"});
      result.layers.push_back(
          {"sim.events_per_op",
           static_cast<double>(after.events - before.events) / n,
           "count"});
      result.layers.push_back(
          {"sim.events_per_wall_s",
           static_cast<double>(after.events - before.events) / wall_s, "1/s"});
      result.layers.push_back(
          {"sim.link_bytes_per_op",
           static_cast<double>(after.link_bytes - before.link_bytes) / n, "B"});
      result.layers.push_back(
          {"sim.link_msgs_per_op",
           static_cast<double>(after.link_msgs - before.link_msgs) / n,
           "count"});
      result.layer_extra.push_back(
          {"sim.cpu_virtual_ms_per_op",
           static_cast<double>(after.cpu_us - before.cpu_us) / 1e3 / n, "ms"});
      result.layers.push_back(
          {"ftm.retries_per_op",
           static_cast<double>(after.retries - before.retries) / n, "count"});
    }
  }
  spans().set_enabled(false);

  result.e2e.push_back({"setup_s", setup_s, "s"});
  slices.report(result);
  result.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p50", quantile(virt_us, 0.50) / 1e3, "ms"});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p99", quantile(virt_us, 0.99) / 1e3, "ms"});

  // Per-layer figures read from the systems' own counters.
  std::size_t peak_queue = 0;
  std::uint64_t gave_up = 0;
  for (std::size_t f = 0; f < targets.size(); ++f) {
    auto& sys = *targets[f].system;
    peak_queue = std::max(peak_queue, sys.sim().loop().peak_pending());
    gave_up += sys.client().stats().gave_up;
    result.layer_extra.push_back(
        {std::string("ftm.op_wall_us.p50.") + kFtmNames[f], median(ftm_p50[f]),
         "us", slice_spread(ftm_p50[f])});
    result.layer_extra.push_back(
        {std::string("ftm.allocs_per_op.") + kFtmNames[f],
         ftm_allocs[f] / static_cast<double>(kSliceOps / targets.size()),
         "count"});
  }
  add_report_layers(deploys, result);
  result.layers.push_back(
      {"sim.peak_queue_depth", static_cast<double>(peak_queue), "count"});
  result.layers.push_back(
      {"ftm.gave_up", static_cast<double>(gave_up), "count"});
  result.layers.push_back({"core.deploy_ms", median(deploy_ms), "ms"});

  for (auto& t : targets) {
    auto& sys = *t.system;
    const auto add_size = [&](rcs::HostId a, rcs::HostId b) {
      const auto stats = sys.sim().network().link_stats(a, b);
      if (stats.messages > 0) {
        inputs.message_sizes.push_back(stats.bytes / stats.messages);
      }
    };
    add_size(sys.replica(0).id(), sys.replica(1).id());
    add_size(sys.client_host().id(), sys.replica(0).id());
  }
}

}  // namespace e2e
