// End-to-end benchmark of the resilient-computing reproduction.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--log-level off|error|warn|info] [--trace-out FILE]
//
// Workloads (see workloads.hpp): request_path, adapt_churn, fleet_ladder,
// fleet_failover, gateway_http. Every workload checks the program's
// outputs; a failed check counts against `failed` and makes the exit status
// non-zero.
//
// Output: a header (host CPUs, compiler, build type, seed), one line per
// metric (name, value, unit, slice spread), then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, taken
// from a run whose timed slices alternate between spans on and off, plus
// isolated replays of each layer's public calls. The spans are written as
// Chrome trace JSON to --trace-out.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "harness.hpp"
#include "layers.hpp"
#include "rcs/common/logging.hpp"
#include "workloads.hpp"

namespace {

// The metric sets BENCHMARK.json declares; every workload reports each one.
const char* const kEndToEnd[] = {
    "setup_s",        "norm_ops_per_s", "norm_op_us.p50",
    "norm_op_us.p99", "allocs_per_op",  "peak_rss_mb",
};
const char* const kPerLayer[] = {
    "common.allocs_per_op",  "common.heap_bytes_per_op",
    "common.value_encode_ns", "common.fnv1a_ns",
    "app.checksum_ns",       "sim.events_per_op",
    "sim.events_per_wall_s", "sim.peak_queue_depth",
    "sim.send_deliver_ns",   "sim.link_bytes_per_op",
    "sim.link_msgs_per_op",
    "component.invoke_ns",   "component.install_us",
    "component.package_bytes", "component.shipped",
    "script.parse_us",       "script.exec_us",
    "gateway.http_parse_ns", "gateway.json_of_ns",
    "ftm.retries_per_op",    "ftm.gave_up",
    "core.deploy_ms",        "trace_overhead",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload request_path|adapt_churn|"
               "fleet_ladder|fleet_failover|gateway_http\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--log-level off|error|warn|info] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

rcs::LogLevel parse_level(const std::string& name) {
  if (name == "off") return rcs::LogLevel::kOff;
  if (name == "error") return rcs::LogLevel::kError;
  if (name == "warn") return rcs::LogLevel::kWarn;
  if (name == "info") return rcs::LogLevel::kInfo;
  usage("unknown --log-level");
}

/// Refuse to time a debug or sanitized build: the numbers would describe
/// the instrumentation, not the program.
void check_build() {
#ifndef NDEBUG
  usage("refusing to time a build without NDEBUG");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  usage("refusing to time a sanitized build");
#endif
  if (std::string(E2E_SANITIZE).size() > 0) {
    usage("refusing to time a build with RCS_SANITIZE set");
  }
}

void print_metric(const char* set, const e2e::Metric& m) {
  std::printf("%-12s %-34s %16.6g %-6s", set, m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.spread >= 0.0) std::printf("  slice spread %.3f", m.spread);
  std::printf("\n");
}

/// Abort if a workload's reported set drifts from the declared one.
void check_names(const std::vector<e2e::Metric>& metrics,
                 const char* const* names, std::size_t count,
                 const char* what) {
  std::set<std::string> want(names, names + count);
  std::set<std::string> got;
  for (const auto& m : metrics) got.insert(m.name);
  if (got != want || metrics.size() != count) {
    std::fprintf(stderr, "e2e_bench: %s metric set does not match the "
                         "declared one\n", what);
    std::exit(3);
  }
}

void print_json_metrics(const std::vector<e2e::Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  std::string trace_out;
  rcs::LogLevel level = rcs::LogLevel::kError;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--log-level") {
      level = parse_level(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const e2e::WorkloadFn workload = e2e::find_workload(options.workload);
  if (workload == nullptr) usage("unknown --workload");
  if (!have_seed) usage("--seed is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  check_build();

  // Keep stderr logging (client "giving up" warnings, deploy info lines)
  // out of the timed regions.
  rcs::log().set_level(level);

  std::printf("# e2e_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host_cpus=%ld compiler=\"%s\" build_type=%s flags=\"%s\" "
              "log_level=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, E2E_BUILD_TYPE,
              E2E_BUILD_FLAGS, rcs::to_string(level));
  std::fflush(stdout);

  e2e::Result result;
  e2e::LayerInputs inputs;
  try {
    workload(options, result, inputs);
    if (options.trace) {
      e2e::replay_layers(inputs, result);
      for (const auto& [layer, totals] : e2e::spans().layers()) {
        result.layer_extra.push_back(
            {"span_self_ms." + layer, totals.self_ns / 1e6, "ms"});
      }
      if (!trace_out.empty() && !e2e::spans().write_chrome(trace_out)) {
        result.notes.push_back("could not write trace to " + trace_out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: workload aborted: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "e2e_bench: no operation was attempted\n");
    return 1;
  }

  for (const auto& m : result.e2e) print_metric("end_to_end", m);
  for (const auto& m : result.e2e_extra) print_metric("end_to_end+", m);
  print_metric("end_to_end+",
               {"fail_share",
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
                "ratio"});
  if (options.trace) {
    for (const auto& m : result.layers) print_metric("per_layer", m);
    for (const auto& m : result.layer_extra) print_metric("per_layer+", m);
  }
  for (const auto& note : result.notes) {
    std::printf("# note: %s\n", note.c_str());
  }
  for (const auto& f : result.failures) {
    std::printf("# check failed: %s\n", f.c_str());
  }

  check_names(result.e2e, kEndToEnd, std::size(kEndToEnd), "end-to-end");
  if (options.trace) {
    check_names(result.layers, kPerLayer, std::size(kPerLayer), "per-layer");
  }
  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_json_metrics(options.trace ? result.layers : result.e2e);
  std::printf("}\n");
  return correct ? 0 : 1;
}
