// load_runner: capacity sweeps and the adaptation-under-load scenario.
//
//   load_runner                                   # default PBR sweep
//   load_runner --ftm LFR --delta off --steps 10 --out curve.jsonl
//   load_runner --bandwidth 1e6 --cpu-speed 0.5   # move the knee, watch it
//   load_runner --scenario adapt --trace-out t.json --metrics-out m.jsonl
//
// Sweep mode ramps offered load and emits one JSON line per measured point
// (stdout, plus --out FILE); the trailing line reports the detected knee.
// Scenario mode runs the closed monitoring->adaptation loop under fleet
// traffic and exits non-zero if any invariant is violated; it reads only
// --seed, --clients, --rps, --bandwidth and the two artifact flags, and an
// omitted one keeps the scenario's own default. This is the one front end
// of the scenario: the live gateway (gateway_runner) serves a different,
// interactive system. Both modes are bit-deterministic in --seed: the same
// command line yields byte-identical output, which CI exploits with a cmp
// gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "cli.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/load/arrival.hpp"
#include "rcs/load/scenario.hpp"
#include "rcs/load/sweep.hpp"
#include "rcs/sim/run_stats.hpp"

namespace {

using rcs::cli::write_file;

/// Bounds of the rate and duration flags (requests per virtual second,
/// virtual seconds).
constexpr double kMinRate = 1e-3;
constexpr double kMaxRate = 1e6;
constexpr double kMaxSeconds = 86'400.0;

double seconds(rcs::sim::Duration d) {
  return static_cast<double>(d) / static_cast<double>(rcs::sim::kSecond);
}

/// Flags land straight in the mode's options, so every default comes from
/// SweepOptions{} / AdaptScenarioOptions{}. --seed, --clients and
/// --bandwidth are parsed into the sweep options and carried over to the
/// scenario only when given.
struct Args {
  std::string scenario;  // empty: sweep mode
  rcs::load::SweepOptions sweep;
  rcs::load::AdaptScenarioOptions adapt;
  std::string delta;  // "", on or off
  double warmup_s{seconds(sweep.warmup)};
  double window_s{seconds(sweep.window)};
  std::string out;
  std::string trace_out;
  std::string metrics_out;
  bool verbose{false};
};

constexpr const char* kUsage =
    "usage: load_runner [--seed S] [--ftm NAME] [--delta on|off]\n"
    "                   [--arrival open|closed|bursty] [--clients N]\n"
    "                   [--rps-from R] [--rps-to R] [--steps N]\n"
    "                   [--warmup SEC] [--window SEC] [--bandwidth BPS]\n"
    "                   [--cpu-speed X] [--out FILE] [--verbose]\n"
    "       load_runner --scenario adapt [--seed S] [--clients N]\n"
    "                   [--rps R] [--bandwidth BPS]\n"
    "                   [--trace-out FILE] [--metrics-out FILE]";

/// Flag modes: the rate sweep and --scenario adapt.
constexpr unsigned kSweepMode = 1;
constexpr unsigned kScenarioMode = 2;

/// Parse argv into `args`; returns the exit status when the tool must stop.
std::optional<int> parse_args(int argc, char** argv, Args& args) {
  auto& sweep = args.sweep;
  rcs::cli::Flags flags(kUsage);
  flags.choice("--scenario", {"adapt"}, args.scenario)
      .number("--seed", 0, UINT64_MAX, sweep.seed)
      .text("--ftm", sweep.ftm,
            [](const std::string& name) {
              (void)rcs::ftm::FtmConfig::by_name(name);
            })
      .only(kSweepMode)
      .choice("--delta", {"on", "off"}, args.delta)
      .only(kSweepMode)
      .text("--arrival", sweep.arrival,
            [](const std::string& kind) {
              (void)rcs::load::make_process(kind, 1.0);
            })
      .only(kSweepMode)
      .number("--clients", 1, 100'000, sweep.clients)
      .number("--steps", 1, 10'000, sweep.steps)
      .only(kSweepMode)
      .number("--rps-from", kMinRate, kMaxRate, sweep.rps_from)
      .only(kSweepMode)
      .number("--rps-to", kMinRate, kMaxRate, sweep.rps_to)
      .only(kSweepMode)
      .number("--rps", kMinRate, kMaxRate, args.adapt.offered_rps)
      .only(kScenarioMode)
      .number("--warmup", 0.0, kMaxSeconds, args.warmup_s)
      .only(kSweepMode)
      .number("--window", 1e-3, kMaxSeconds, args.window_s)
      .only(kSweepMode)
      .number("--bandwidth", 1.0, 1e12, sweep.replica_bandwidth_bps)
      .number("--cpu-speed", 1e-3, 1e3, sweep.cpu_speed)
      .only(kSweepMode)
      .text("--out", args.out)
      .only(kSweepMode)
      .text("--trace-out", args.trace_out)
      .only(kScenarioMode)
      .text("--metrics-out", args.metrics_out)
      .only(kScenarioMode)
      .toggle("--verbose", args.verbose);
  if (const auto stop = flags.parse(argc, argv)) return stop;
  if (const auto stop = args.scenario.empty()
                            ? flags.check_mode(kSweepMode, "without --scenario")
                            : flags.check_mode(kScenarioMode, "by --scenario adapt")) {
    return stop;
  }
  if (sweep.rps_to < sweep.rps_from) {
    char message[96];
    std::snprintf(message, sizeof message,
                  "bad --rps-to value: %g is below --rps-from %g",
                  sweep.rps_to, sweep.rps_from);
    return flags.fail(message);
  }
  if (!args.delta.empty()) sweep.delta_checkpoint = args.delta == "on";
  sweep.warmup =
      static_cast<rcs::sim::Duration>(args.warmup_s * rcs::sim::kSecond);
  sweep.window =
      static_cast<rcs::sim::Duration>(args.window_s * rcs::sim::kSecond);
  args.adapt.seed = sweep.seed;
  if (flags.given("--clients")) args.adapt.clients = sweep.clients;
  if (flags.given("--bandwidth")) {
    args.adapt.replica_bandwidth_bps = sweep.replica_bandwidth_bps;
  }
  args.adapt.record_trace = !args.trace_out.empty() || !args.metrics_out.empty();
  return std::nullopt;
}

int run_sweep_mode(const Args& args, rcs::sim::RunStats& stats) {
  const auto& options = args.sweep;
  std::fprintf(stderr,               "sweep: %s/%s %zu client(s) %s arrivals, %.0f..%.0f rps in %d "
               "step(s), bw=%.0f Bps cpu=%.2fx\n",
               options.ftm.c_str(), options.delta_checkpoint ? "delta" : "full",
               options.clients, options.arrival.c_str(), options.rps_from,
               options.rps_to, options.steps, options.replica_bandwidth_bps,
               options.cpu_speed);
  const auto result = rcs::load::run_sweep(options);
  stats.merge(result.run_stats);
  const std::string json = result.to_json_lines();
  std::fputs(json.c_str(), stdout);
  if (!args.out.empty() && !write_file(args.out, json, "sweep curve")) return 2;
  if (result.knee_index >= 0) {
    std::fprintf(stderr, "knee at step %d (offered %.1f rps)\n",
                 result.knee_index, result.knee_offered_rps());
  } else {
    std::fprintf(stderr, "no knee found in the ramp\n");
  }
  return 0;
}

int run_scenario_mode(const Args& args, rcs::sim::RunStats& stats) {
  const auto result = rcs::load::run_adapt_scenario(args.adapt);
  stats.merge(result.run_stats);
  std::fputs(result.trace.c_str(), stdout);
  if (!rcs::cli::write_trace_artifacts(args.trace_out, result.trace_json,
                                       args.metrics_out,
                                       result.metrics_json)) {
    return 2;
  }
  return result.passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const auto stop = parse_args(argc, argv, args)) return *stop;
  rcs::cli::set_log_level(args.verbose);
  // Scheduler accounting and wall clock go to stderr so stdout stays
  // byte-identical for the determinism cmp gates.
  const auto start = std::chrono::steady_clock::now();
  rcs::sim::RunStats stats;
  const int rc = args.scenario.empty() ? run_sweep_mode(args, stats)
                                       : run_scenario_mode(args, stats);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  std::fputs(stats.format(wall.count()).c_str(), stderr);
  return rc;
}
