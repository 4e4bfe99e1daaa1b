// adapt_churn: one system cycling through every differential transition.
//
// One ResilientSystem (monitoring off) starts on PBR and walks a seeded
// Eulerian circuit of the complete directed graph over the six Table 3
// FTMs, so each cycle runs every ordered pair exactly once through
// transition_and_wait. After each transition come two incr roundtrips on
// one counter key, and every 5th step refreshes one brick slot. Checks: every
// TransitionReport is ok and the counter moves by exactly one per incr across
// every transition. This is where RScript build/parse/interpret, package
// install, quiescence and the repository download live.
#include <algorithm>
#include <memory>

#include "rcs/app/app_base.hpp"
#include "rcs/common/rng.hpp"
#include "rcs/core/system.hpp"
#include "workloads.hpp"

namespace e2e {

using rcs::Value;

namespace {

constexpr int kSetups = 9;
/// Cycles in the counted segment (deterministic figures).
constexpr std::size_t kCountedCycles = 4;
/// Cycles per timed slice: ~1000 transitions, so each slice's p99 has ten
/// samples beyond it.
constexpr std::size_t kSliceCycles = 34;
constexpr std::size_t kRefreshEvery = 5;
/// Steps between two host-speed reference passes.
constexpr std::size_t kReferenceEvery = 20;
const char* const kCounter = "ctr";

/// A seeded Eulerian circuit from FTM 0 over every ordered pair (i, j),
/// i != j, of `n` FTMs (Hierholzer with shuffled adjacency).
std::vector<std::size_t> eulerian_cycle(std::size_t n, rcs::Rng& rng) {
  std::vector<std::vector<std::size_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) out[i].push_back(j);
    }
    for (std::size_t k = out[i].size(); k > 1; --k) {
      std::swap(out[i][k - 1],
                out[i][static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(k) - 1))]);
    }
  }
  std::vector<std::size_t> stack{0};
  std::vector<std::size_t> circuit;
  while (!stack.empty()) {
    auto& edges = out[stack.back()];
    if (edges.empty()) {
      circuit.push_back(stack.back());
      stack.pop_back();
    } else {
      stack.push_back(edges.back());
      edges.pop_back();
    }
  }
  std::reverse(circuit.begin(), circuit.end());
  return circuit;  // n*(n-1)+1 nodes, first == last == 0
}

struct Step {
  std::size_t to{0};
  bool refresh{false};
  std::string slot;
};

std::vector<Step> next_cycle(std::size_t n, rcs::Rng& rng,
                             std::size_t& step_number) {
  const auto circuit = eulerian_cycle(n, rng);
  const auto slots = rcs::ftm::FtmConfig::slot_names();
  std::vector<Step> steps;
  for (std::size_t i = 1; i < circuit.size(); ++i) {
    Step step;
    step.to = circuit[i];
    step.refresh = ++step_number % kRefreshEvery == 0;
    if (step.refresh) {
      step.slot = slots[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(slots.size()) - 1))];
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace

void run_adapt_churn(const Options& options, Result& result,
                     LayerInputs& inputs) {
  const auto& ftms = rcs::ftm::FtmConfig::table3_set();
  std::unique_ptr<rcs::core::ResilientSystem> system;
  std::int64_t counter = 0;
  std::size_t current = 0;
  std::vector<double> deploy_ms;
  std::vector<rcs::core::TransitionReport> reports;
  rcs::core::TransitionReport deploy_report;
  // Allocations inside the public calls of counted steps.
  AllocCounts counted_allocs;
  const auto tally = [&counted_allocs](bool counted, const AllocCounts& a0) {
    if (!counted) return;
    const AllocCounts a1 = alloc_counts();
    counted_allocs.count += a1.count - a0.count;
    counted_allocs.bytes += a1.bytes - a0.bytes;
  };

  // One incr roundtrip on the counter, checked against the expected count.
  const auto incr = [&](bool record, std::vector<double>* virt_us) {
    Value request = Value::map().set("op", "incr").set("key", kCounter);
    if (record) inputs.record_request(request);
    const auto virt0 = system->sim().now();
    const AllocCounts a0 = alloc_counts();
    const Value reply = system->roundtrip(std::move(request));
    tally(record, a0);
    if (virt_us != nullptr) {
      virt_us->push_back(static_cast<double>(system->sim().now() - virt0));
    }
    if (record) inputs.record_reply(reply);
    ++result.attempted;
    if (!reply.is_map() || !reply.has("result") ||
        !rcs::app::AppServerBase::checksum_ok(reply.at("result")) ||
        reply.at("result").at("value").as_int() != counter + 1) {
      result.fail("counter did not move by exactly one across a transition");
      return;
    }
    ++counter;
  };

  /// Runs one step; returns the transition's wall time in microseconds.
  const auto run_step = [&](const Step& step, bool counted,
                            std::vector<double>* virt_us) {
    const auto& target = ftms[step.to];
    if (counted) {
      inputs.adaptations.push_back(
          Adaptation::transition(ftms[current], target));
    }
    const auto start = Clock::now();
    rcs::core::TransitionReport report;
    {
      Span span("core.ResilientSystem::transition_and_wait", "core");
      const AllocCounts a0 = alloc_counts();
      report = system->transition_and_wait(target);
      tally(counted, a0);
    }
    const double us = seconds_since(start) * 1e6;
    ++result.attempted;
    if (!report.ok) result.fail("transition to " + target.name + " failed");
    if (counted) reports.push_back(report);
    current = step.to;
    for (int k = 0; k < 2; ++k) {
      Span span("core.ResilientSystem::roundtrip", "core");
      incr(counted, virt_us);
    }
    if (step.refresh) {
      if (counted) {
        inputs.adaptations.push_back(
            Adaptation::refresh(target, step.slot));
      }
      Span span("core.ResilientSystem::refresh_and_wait", "core");
      const auto refresh_start = Clock::now();
      const AllocCounts a0 = alloc_counts();
      const auto refreshed = system->refresh_and_wait(step.slot);
      tally(counted, a0);
      ++result.attempted;
      if (!refreshed.ok) result.fail("refresh of " + step.slot + " failed");
      return std::pair{us, seconds_since(refresh_start) * 1e6};
    }
    return std::pair{us, -1.0};
  };

  rcs::Rng rng(options.seed);
  std::size_t step_number = 0;
  const double setup_s = median_setup_s(kSetups, [&](int) {
    rcs::core::SystemOptions sys;
    sys.seed = options.seed;
    sys.start_monitoring = false;
    system = std::make_unique<rcs::core::ResilientSystem>(sys);
    counter = 0;
    current = 0;
    const auto start = Clock::now();
    deploy_report = system->deploy_and_wait(ftms[0]);
    deploy_ms.push_back(seconds_since(start) * 1e3);
    if (!deploy_report.ok) result.fail("initial deploy failed");
    // One untimed warm-up cycle.
    rcs::Rng warm(options.seed ^ 0x5eedULL);
    std::size_t warm_steps = 0;
    for (const auto& step : next_cycle(ftms.size(), warm, warm_steps)) {
      run_step(step, false, nullptr);
    }
  });
  inputs.adaptations.push_back(Adaptation::deploy(ftms[0]));
  reports.push_back(deploy_report);

  // Counted segment: the first cycles after warm-up, deterministic per seed.
  std::vector<double> virt_us;
  std::vector<double> transition_virt_ms;
  const auto events0 = system->sim().loop().processed();
  const auto replica_link = [&] {
    return system->sim().network().link_stats(system->replica(0).id(),
                                              system->replica(1).id());
  };
  const auto link0 = replica_link();
  std::int64_t cpu0 = 0;
  for (std::size_t r = 0; r < system->replica_count(); ++r) {
    cpu0 += system->replica(r).meter().cpu_used();
  }
  const auto retries0 = system->client().stats().retries;
  std::size_t counted_steps = 0;
  std::vector<std::vector<Step>> counted_cycles;
  for (std::size_t c = 0; c < kCountedCycles; ++c) {
    counted_cycles.push_back(next_cycle(ftms.size(), rng, step_number));
  }
  const auto counted_start = Clock::now();
  for (const auto& cycle : counted_cycles) {
    for (const auto& step : cycle) {
      run_step(step, true, &virt_us);
      ++counted_steps;
    }
  }
  const double counted_wall = seconds_since(counted_start);
  for (const auto& report : reports) {
    if (report.kind == "transition") {
      transition_virt_ms.push_back(
          static_cast<double>(report.mean_replica_total()) / 1e3);
    }
  }
  {
    const double n = static_cast<double>(counted_steps);
    const double allocs = static_cast<double>(counted_allocs.count);
    result.e2e.push_back({"allocs_per_op", allocs / n, "count"});
    result.layers.push_back({"common.allocs_per_op", allocs / n, "count"});
    result.layers.push_back(
        {"common.heap_bytes_per_op",
         static_cast<double>(counted_allocs.bytes) / n, "B"});
    const auto events = system->sim().loop().processed() - events0;
    result.layers.push_back(
        {"sim.events_per_op", static_cast<double>(events) / n, "count"});
    result.layers.push_back(
        {"sim.events_per_wall_s", static_cast<double>(events) / counted_wall,
         "1/s"});
    const auto link1 = replica_link();
    result.layers.push_back(
        {"sim.link_bytes_per_op",
         static_cast<double>(link1.bytes - link0.bytes) / n, "B"});
    result.layers.push_back(
        {"sim.link_msgs_per_op",
         static_cast<double>(link1.messages - link0.messages) / n, "count"});
    std::int64_t cpu1 = 0;
    for (std::size_t r = 0; r < system->replica_count(); ++r) {
      cpu1 += system->replica(r).meter().cpu_used();
    }
    result.layer_extra.push_back(
        {"sim.cpu_virtual_ms_per_op",
         static_cast<double>(cpu1 - cpu0) / 1e3 / n, "ms"});
    result.layers.push_back(
        {"ftm.retries_per_op",
         static_cast<double>(system->client().stats().retries - retries0) / n,
         "count"});
  }

  // Timed slices until the deadline.
  Slices slices(options.trace);
  std::vector<double> refresh_us;
  std::vector<double> op_us;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t slice = 0; slice == 0 || Clock::now() < deadline; ++slice) {
    std::vector<std::vector<Step>> cycles;
    for (std::size_t c = 0; c < kSliceCycles; ++c) {
      cycles.push_back(next_cycle(ftms.size(), rng, step_number));
    }
    op_us.clear();
    slices.begin(slice);
    const double reference0 = slices.reference_s();
    const auto start = Clock::now();
    for (const auto& cycle : cycles) {
      for (const auto& step : cycle) {
        const auto [us, refresh] = run_step(step, false, nullptr);
        op_us.push_back(us);
        if (refresh >= 0.0 && !slices.traced(slice)) {
          refresh_us.push_back(refresh);
        }
        if (op_us.size() % kReferenceEvery == 0) slices.reference(op_us.size());
      }
    }
    const double work_s =
        seconds_since(start) - (slices.reference_s() - reference0);
    slices.add(slice, op_us.size(), work_s, op_us);
  }

  result.e2e.push_back({"setup_s", setup_s, "s"});
  slices.report(result);
  result.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p50", quantile(virt_us, 0.50) / 1e3, "ms"});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p99", quantile(virt_us, 0.99) / 1e3, "ms"});
  result.e2e_extra.push_back(
      {"transition_virt_ms.p50", median(transition_virt_ms), "ms"});

  result.layers.push_back(
      {"sim.peak_queue_depth",
       static_cast<double>(system->sim().loop().peak_pending()), "count"});
  result.layers.push_back(
      {"ftm.gave_up", static_cast<double>(system->client().stats().gave_up),
       "count"});
  result.layers.push_back({"core.deploy_ms", median(deploy_ms), "ms"});
  add_report_layers(reports, result);
  result.layer_extra.push_back(
      {"core.refresh_wall_us.p50", median(refresh_us), "us",
       slice_spread(refresh_us)});

  const auto add_size = [&](rcs::HostId a, rcs::HostId b) {
    const auto stats = system->sim().network().link_stats(a, b);
    if (stats.messages > 0) {
      inputs.message_sizes.push_back(stats.bytes / stats.messages);
    }
  };
  add_size(system->replica(0).id(), system->replica(1).id());
  add_size(system->manager_host().id(), system->replica(0).id());
  add_size(system->client_host().id(), system->replica(0).id());
}

}  // namespace e2e
