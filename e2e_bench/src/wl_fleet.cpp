// fleet_ladder and fleet_failover: open loops in virtual time.
//
// A load::ClientFleet of 40 simulated clients with Poisson arrivals drives
// PBR (delta checkpoints, 2 replicas, monitoring off). Each episode:
//   (fleet_failover only) failover phase at lo: warm up, crash the primary
//     at a fixed instant, restart it 5 s later, let it rejoin;
//   rate ladder: lo = 100, mid = 190, hi = 250 rps, each a 2 s warm-up and
//     a 6 s measurement window (the PBR knee lies between 200 and 250 rps);
//   stop, drain, read the counter, and run ftm::HistoryChecker over the
//     fleet's merged history.
// Episodes repeat with the same seed until --seconds elapse; every episode
// must reproduce the first exactly. Virtual-time and counted figures come
// from the first episode; wall figures are the fast quartile over episodes.
// This is where the scheduler, network, failure detector, client retries and
// host CPU queueing do most of the work.
#include <algorithm>
#include <memory>

#include "rcs/app/app_base.hpp"
#include "rcs/core/system.hpp"
#include "rcs/ftm/history.hpp"
#include "rcs/load/fleet.hpp"
#include "workloads.hpp"

namespace e2e {

using rcs::Value;
namespace sim = rcs::sim;

namespace {

constexpr std::size_t kClients = 40;
constexpr int kMinEpisodes = 5;
constexpr double kLadderRps[3] = {100.0, 190.0, 250.0};
const char* const kLadderNames[3] = {"lo", "mid", "hi"};
constexpr sim::Duration kLadderWarmup = 2 * sim::kSecond;
constexpr sim::Duration kLadderWindow = 6 * sim::kSecond;
constexpr sim::Duration kFailoverWarmup = 3 * sim::kSecond;
constexpr sim::Duration kCrashFor = 5 * sim::kSecond;
constexpr sim::Duration kRejoin = 5 * sim::kSecond;
constexpr sim::Duration kDrainBudget = 60 * sim::kSecond;
/// Virtual time per wall-timed chunk (op_wall_us: wall per simulated
/// request within each chunk).
constexpr sim::Duration kChunk = 100 * sim::kMillisecond;
/// Chunks between two host-speed reference passes.
constexpr int kReferenceEvery = 4;
/// Latency limit on a window's p99, in virtual ms.
constexpr double kLimitMs = 250.0;

struct Window {
  sim::Time start{0};
  sim::Time end{0};
  std::size_t backlog_start{0};
  std::size_t backlog_end{0};
  double cpu_util{0.0};
};

struct Episode {
  double setup_s{0.0};
  double deploy_ms{0.0};
  double run_wall_s{0.0};
  std::vector<double> chunk_us;  // wall us per completed request, per chunk
  AllocCounts allocs;
  std::uint64_t events{0};
  std::uint64_t link_bytes{0};
  std::uint64_t link_msgs{0};
  std::int64_t cpu_us{0};
  std::size_t peak_queue{0};
  rcs::load::ClientFleet::Totals totals;
  Window windows[3];
  sim::Time crash_at{0};
  sim::Time restart_at{0};
  std::size_t outstanding{0};
  std::vector<rcs::ftm::HistoryRecord> records;
  rcs::ftm::InvariantReport report;
  rcs::core::TransitionReport deploy;
  std::vector<std::size_t> message_sizes;
};

Episode run_episode(std::uint64_t seed, bool failover, Slices& slices,
                    Result& result) {
  Episode ep;
  const auto setup_start = Clock::now();
  rcs::core::SystemOptions options;
  options.seed = seed;
  options.start_monitoring = false;
  rcs::core::ResilientSystem system(options);
  {
    Span span("core.ResilientSystem::deploy_and_wait", "core");
    const auto start = Clock::now();
    ep.deploy = system.deploy_and_wait(rcs::ftm::FtmConfig::pbr());
    ep.deploy_ms = seconds_since(start) * 1e3;
  }
  if (!ep.deploy.ok) result.fail("PBR deploy failed");
  rcs::load::FleetOptions fleet_options;
  fleet_options.clients = kClients;
  fleet_options.seed = seed;
  fleet_options.record_history = true;
  rcs::load::ClientFleet fleet(
      system, fleet_options,
      rcs::load::make_process("open", kLadderRps[0] / kClients));
  ep.setup_s = seconds_since(setup_start);

  auto& simulation = system.sim();
  std::vector<std::int64_t> cpu_last(system.replica_count(), 0);
  const auto fold_cpu = [&] {
    // A restart wipes the host's meter: count a regression as a reset.
    for (std::size_t r = 0; r < system.replica_count(); ++r) {
      const std::int64_t now = system.replica(r).meter().cpu_used();
      ep.cpu_us += now >= cpu_last[r] ? now - cpu_last[r] : now;
      cpu_last[r] = now;
    }
  };
  fold_cpu();
  ep.cpu_us = 0;
  ep.chunk_us.reserve(4096);
  // Reference passes run between chunks; their time and allocations are
  // taken back out of the episode's figures.
  double reference_s = 0.0;
  AllocCounts reference_allocs;
  int chunks = 0;
  const auto advance = [&](sim::Duration span_of, bool until_drained) {
    const sim::Time until = simulation.now() + span_of;
    while (simulation.now() < until) {
      if (until_drained && fleet.outstanding() == 0) break;
      const auto ok0 = fleet.totals().ok;
      const auto start = Clock::now();
      {
        Span span("sim.Simulation::run_for", "sim");
        simulation.run_for(
            std::min<sim::Duration>(kChunk, until - simulation.now()));
      }
      const double wall_us = seconds_since(start) * 1e6;
      const auto done = fleet.totals().ok - ok0;
      if (done > 0) ep.chunk_us.push_back(wall_us / static_cast<double>(done));
      fold_cpu();
      if (++chunks % kReferenceEvery == 0) {
        const AllocCounts r0 = alloc_counts();
        reference_s += slices.reference(ep.chunk_us.size());
        const AllocCounts r1 = alloc_counts();
        reference_allocs.count += r1.count - r0.count;
        reference_allocs.bytes += r1.bytes - r0.bytes;
      }
    }
  };

  const std::uint64_t events0 = simulation.loop().processed();
  const auto link0 = simulation.network().link_stats(system.replica(0).id(),
                                                     system.replica(1).id());
  const AllocCounts a0 = alloc_counts();
  const auto run_start = Clock::now();
  fleet.start();

  if (failover) {  // at lo
    advance(kFailoverWarmup, false);
    ep.crash_at = simulation.now();
    {
      Span span("sim.Host::crash", "sim");
      system.replica(0).crash();
    }
    advance(kCrashFor, false);
    ep.restart_at = simulation.now();
    {
      Span span("sim.Host::restart", "sim");
      system.replica(0).restart();
    }
    advance(kRejoin, false);
  }

  // Rate ladder.
  for (int rung = 0; rung < 3; ++rung) {
    Window& w = ep.windows[rung];
    {
      Span span("load.ClientFleet::set_rate", "load");
      fleet.set_rate(kLadderRps[rung] / kClients);
    }
    advance(kLadderWarmup, false);
    w.start = simulation.now();
    w.backlog_start = fleet.outstanding();
    std::vector<sim::MeterRateSampler> cpu(system.replica_count());
    for (std::size_t r = 0; r < cpu.size(); ++r) {
      (void)cpu[r].sample(simulation.now(), system.replica(r).meter());
    }
    advance(kLadderWindow, false);
    w.end = simulation.now();
    w.backlog_end = fleet.outstanding();
    for (std::size_t r = 0; r < cpu.size(); ++r) {
      w.cpu_util = std::max(
          w.cpu_util,
          cpu[r].sample(simulation.now(), system.replica(r).meter())
              .cpu_utilization);
    }
  }
  {
    Span span("load.ClientFleet::stop", "load");
    fleet.stop();
  }
  advance(kDrainBudget, true);
  ep.run_wall_s = seconds_since(run_start) - reference_s;
  const AllocCounts a1 = alloc_counts();
  ep.allocs = {a1.count - a0.count - reference_allocs.count,
               a1.bytes - a0.bytes - reference_allocs.bytes};
  ep.events = simulation.loop().processed() - events0;
  const auto link1 = simulation.network().link_stats(system.replica(0).id(),
                                                     system.replica(1).id());
  ep.link_bytes = link1.bytes - link0.bytes;
  ep.link_msgs = link1.messages - link0.messages;
  ep.peak_queue = simulation.loop().peak_pending();
  ep.totals = fleet.totals();
  ep.outstanding = fleet.outstanding();

  // Verdict: an authoritative counter read, then the chaos campaigns'
  // oracle over the merged multi-client history.
  rcs::ftm::HistoryChecker::Inputs inputs;
  inputs.counter_key = "ctr";
  inputs.outstanding = ep.outstanding;
  inputs.result_valid = [](const Value& v) {
    return rcs::app::AppServerBase::checksum_ok(v);
  };
  try {
    const Value read = system.roundtrip(
        Value::map().set("op", "get").set("key", "ctr"), 15 * sim::kSecond);
    if (read.is_map() && read.has("result")) {
      const Value& v = read.at("result");
      inputs.final_counter =
          v.at("found").as_bool() ? v.at("value").as_int() : 0;
      inputs.final_counter_valid = true;
    }
  } catch (const std::exception&) {
    result.fail("final counter read got no reply");
  }
  {
    Span span("load.ClientFleet::merged_history", "load");
    ep.records = fleet.merged_history();
  }
  {
    Span span("ftm.HistoryChecker::check", "ftm");
    ep.report = rcs::ftm::HistoryChecker::check(ep.records, inputs);
  }

  const auto add_size = [&](rcs::HostId a, rcs::HostId b) {
    const auto stats = simulation.network().link_stats(a, b);
    if (stats.messages > 0) {
      ep.message_sizes.push_back(stats.bytes / stats.messages);
    }
  };
  add_size(system.replica(0).id(), system.replica(1).id());
  add_size(system.manager_host().id(), system.replica(0).id());
  return ep;
}

/// Latency and SLO figures of one ladder window, from the history records
/// of the requests sent inside it (timed from their send instant).
struct WindowStats {
  std::uint64_t attempted{0};
  std::uint64_t misses{0};
  std::vector<double> ok_ms;
};

WindowStats window_stats(const Episode& ep, const Window& w) {
  WindowStats s;
  for (const auto& r : ep.records) {
    if (r.sent < w.start || r.sent >= w.end) continue;
    ++s.attempted;
    const bool ok = r.outcome == rcs::ftm::HistoryRecord::Outcome::kOk;
    const double ms = static_cast<double>(r.completed - r.sent) / 1e3;
    if (ok) s.ok_ms.push_back(ms);
    if (!ok || ms > kLimitMs) ++s.misses;
  }
  return s;
}

/// Longest stretch without an ok reply from the crash until the rejoined
/// replica has had kRejoin to settle.
double outage_ms(const Episode& ep) {
  std::vector<sim::Time> done;
  for (const auto& r : ep.records) {
    if (r.outcome == rcs::ftm::HistoryRecord::Outcome::kOk) {
      done.push_back(r.completed);
    }
  }
  std::sort(done.begin(), done.end());
  const sim::Time horizon = ep.restart_at + kRejoin;
  double longest = 0.0;
  for (std::size_t i = 1; i < done.size(); ++i) {
    if (done[i] < ep.crash_at || done[i - 1] > horizon) continue;
    const sim::Time from = std::max(done[i - 1], ep.crash_at);
    longest = std::max(longest, static_cast<double>(done[i] - from) / 1e3);
  }
  return longest;
}

void run_fleet(const Options& options, bool failover, Result& result,
               LayerInputs& inputs) {
  Slices slices(options.trace);
  std::vector<double> setups;
  std::vector<double> deploy_ms;
  std::vector<double> run_walls;
  Episode first;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t index = 0;
       index < kMinEpisodes || Clock::now() < deadline; ++index) {
    slices.begin(index);
    Episode ep = run_episode(options.seed, failover, slices, result);
    const std::size_t requests = ep.records.size();
    slices.add(index, requests, ep.run_wall_s, ep.chunk_us);
    setups.push_back(ep.setup_s);
    deploy_ms.push_back(ep.deploy_ms);
    if (!slices.traced(index)) run_walls.push_back(ep.run_wall_s);
    if (index == 0) {
      first = std::move(ep);
      continue;
    }
    // Same seed, same episode: anything else is a determinism failure
    // (spans allocate, so traced episodes skip the allocation count).
    if (ep.records.size() != first.records.size() ||
        ep.totals.ok != first.totals.ok || ep.events != first.events ||
        (!slices.traced(index) && ep.allocs.count != first.allocs.count)) {
      result.fail("episode did not reproduce the first one");
    }
  }

  // Output checks on the first episode (every later one is identical).
  std::uint64_t not_ok = first.outstanding;
  for (const auto& r : first.records) {
    if (r.outcome != rcs::ftm::HistoryRecord::Outcome::kOk) ++not_ok;
  }
  result.attempted += first.records.size();
  for (const auto& v : first.report.violations) result.fail(v);
  result.failed = std::max<std::uint64_t>(result.failed, not_ok);

  const double n =
      static_cast<double>(std::max<std::size_t>(first.records.size(), 1));
  result.e2e.push_back({"setup_s", median(setups), "s"});
  slices.report(result);
  result.e2e.push_back(
      {"allocs_per_op", static_cast<double>(first.allocs.count) / n, "count"});
  result.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  std::uint64_t ladder_attempted = 0;
  std::uint64_t ladder_misses = 0;
  double capacity = 0.0;
  bool below_knee = true;
  for (int rung = 0; rung < 3; ++rung) {
    const Window& w = first.windows[rung];
    const WindowStats s = window_stats(first, w);
    ladder_attempted += s.attempted;
    ladder_misses += s.misses;
    const double p50 = quantile(s.ok_ms, 0.50);
    const double p99 = quantile(s.ok_ms, 0.99);
    if (rung == 1) {
      result.e2e_extra.push_back({"virt_lat_ms.p50", p50, "ms"});
      result.e2e_extra.push_back({"virt_lat_ms.p99", p99, "ms"});
    }
    // Growing backlog: more requests pending at the window's end than at
    // its start by over 5% of what the window offered.
    const bool growing = static_cast<double>(w.backlog_end) >
                         static_cast<double>(w.backlog_start) +
                             0.05 * static_cast<double>(s.attempted);
    below_knee = below_knee && p99 <= kLimitMs && !growing &&
                 s.misses * 100 <= s.attempted;
    if (below_knee) capacity = kLadderRps[rung];
    const std::string suffix = kLadderNames[rung];
    result.layer_extra.push_back(
        {"sim.cpu_util." + suffix, w.cpu_util, "ratio"});
    result.layer_extra.push_back({"load.virt_lat_ms.p50." + suffix, p50, "ms"});
    result.layer_extra.push_back({"load.virt_lat_ms.p99." + suffix, p99, "ms"});
    result.layer_extra.push_back(
        {"load.backlog_end." + suffix, static_cast<double>(w.backlog_end),
         "count"});
  }
  result.e2e_extra.push_back(
      {"slo_miss_share",
       static_cast<double>(ladder_misses) /
           static_cast<double>(std::max<std::uint64_t>(ladder_attempted, 1)),
       "ratio"});
  result.e2e_extra.push_back({"capacity_rps", capacity, "rps"});
  if (failover) {
    result.e2e_extra.push_back({"outage_ms", outage_ms(first), "ms"});
  }

  const auto per_op = [n](std::vector<Metric>& to, const char* name,
                          double total, const char* unit) {
    to.push_back({name, total / n, unit});
  };
  const auto as_double = [](auto v) { return static_cast<double>(v); };
  per_op(result.layers, "common.allocs_per_op", as_double(first.allocs.count),
         "count");
  per_op(result.layers, "common.heap_bytes_per_op",
         as_double(first.allocs.bytes), "B");
  per_op(result.layers, "sim.events_per_op", as_double(first.events), "count");
  result.layers.push_back({"sim.events_per_wall_s",
                           as_double(first.events) / median(run_walls), "1/s"});
  result.layers.push_back(
      {"sim.peak_queue_depth", as_double(first.peak_queue), "count"});
  per_op(result.layers, "sim.link_bytes_per_op", as_double(first.link_bytes),
         "B");
  per_op(result.layers, "sim.link_msgs_per_op", as_double(first.link_msgs),
         "count");
  per_op(result.layer_extra, "sim.cpu_virtual_ms_per_op",
         as_double(first.cpu_us) / 1e3, "ms");
  per_op(result.layers, "ftm.retries_per_op", as_double(first.totals.retries),
         "count");
  result.layers.push_back(
      {"ftm.gave_up", as_double(first.totals.gave_up), "count"});
  result.layers.push_back({"core.deploy_ms", median(deploy_ms), "ms"});
  add_report_layers({first.deploy}, result);

  inputs.adaptations.push_back(
      Adaptation::deploy(rcs::ftm::FtmConfig::pbr()));
  inputs.message_sizes = first.message_sizes;
  for (const auto& r : first.records) {
    Value request = Value::map().set("op", r.op).set("key", r.key);
    if (r.op == "incr") request.set("by", r.by);
    if (r.op == "put") request.set("value", static_cast<std::int64_t>(r.id));
    inputs.record_request(request);
    if (r.outcome == rcs::ftm::HistoryRecord::Outcome::kOk) {
      inputs.record_reply(r.result);
    }
  }
}

}  // namespace

void run_fleet_ladder(const Options& options, Result& result,
                      LayerInputs& inputs) {
  run_fleet(options, false, result, inputs);
}

void run_fleet_failover(const Options& options, Result& result,
                        LayerInputs& inputs) {
  run_fleet(options, true, result, inputs);
}

}  // namespace e2e
