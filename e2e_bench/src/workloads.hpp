// The benchmark's workloads and the slice bookkeeping they share.
//
// Every workload: sets up several times and reports the median (setup_s),
// measures one fixed, seed-determined counted segment (allocation and
// virtual-time figures, which repeat exactly for a seed), then runs timed
// slices of fixed size until --seconds elapse and reports each wall figure
// as the median over slices, with the slices' spread: raw (ops_per_s,
// op_wall_us.*) and normalized by the host-speed reference loop run inside
// the same slice (norm_*, see harness.hpp). In the traced run the slices
// alternate between spans on and off, so the untraced slices still give the
// wall figures and the pair gives trace_overhead.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace e2e {

using WorkloadFn = void (*)(const Options&, Result&, LayerInputs&);

void run_request_path(const Options& options, Result& result,
                      LayerInputs& inputs);
void run_adapt_churn(const Options& options, Result& result,
                     LayerInputs& inputs);
void run_fleet_ladder(const Options& options, Result& result,
                      LayerInputs& inputs);
void run_fleet_failover(const Options& options, Result& result,
                        LayerInputs& inputs);
void run_gateway_http(const Options& options, Result& result,
                      LayerInputs& inputs);

[[nodiscard]] inline WorkloadFn find_workload(const std::string& name) {
  if (name == "request_path") return run_request_path;
  if (name == "adapt_churn") return run_adapt_churn;
  if (name == "fleet_ladder") return run_fleet_ladder;
  if (name == "fleet_failover") return run_fleet_failover;
  if (name == "gateway_http") return run_gateway_http;
  return nullptr;
}

/// Wall figures of the timed slices of one run.
class Slices {
 public:
  explicit Slices(bool traced_run) : traced_run_(traced_run) {}

  /// Whether slice number `index` runs with spans on (every other slice of
  /// a traced run).
  [[nodiscard]] bool traced(std::size_t index) const {
    return traced_run_ && index % 2 == 1;
  }
  /// Open slice `index`; runs its first reference pass.
  void begin(std::size_t index) {
    passes_.clear();
    reference(0);
    spans().set_enabled(traced(index));
  }
  /// Run one reference pass inside the current slice, between operations
  /// and outside their timers, after `ops_done` of the slice's operations;
  /// returns its wall time in seconds.
  double reference(std::size_t ops_done) {
    const bool on = spans().enabled();
    spans().set_enabled(false);
    const double s = reference_pass_s();
    spans().set_enabled(on);
    passes_.push_back({ops_done, s});
    return s;
  }
  /// Reference time of the current slice so far (to subtract from a slice
  /// timer that ran around it).
  [[nodiscard]] double reference_s() const {
    double total = 0.0;
    for (const auto& p : passes_) total += p.seconds;
    return total;
  }

  /// Close slice `index`: `ops` operations in `work_s` seconds (reference
  /// passes excluded), with the per-operation wall times in `op_us` (may be
  /// empty).
  void add(std::size_t index, std::size_t ops, double work_s,
           const std::vector<double>& op_us) {
    spans().set_enabled(false);
    // Host-speed factor: a reference pass over its unit, for the whole slice
    // and, per operation, around it (the passes just before and after).
    const double slow = reference_s() / static_cast<double>(passes_.size()) /
                        kReferencePassS;
    Series& s = traced(index) ? traced_ : plain_;
    s.ops_per_s.push_back(static_cast<double>(ops) / work_s);
    s.norm_ops_per_s.push_back(s.ops_per_s.back() * slow);
    if (!op_us.empty()) {
      std::vector<double> norm_us(op_us.size());
      std::size_t k = 0;
      for (std::size_t i = 0; i < op_us.size(); ++i) {
        while (k + 1 < passes_.size() && passes_[k + 1].ops_done <= i) ++k;
        const double local =
            k + 1 < passes_.size()
                ? (passes_[k].seconds + passes_[k + 1].seconds) / 2
                : passes_[k].seconds;
        norm_us[i] = op_us[i] * kReferencePassS / local;
      }
      s.p50.push_back(quantile(op_us, 0.50));
      s.p99.push_back(quantile(op_us, 0.99));
      s.norm_p50.push_back(quantile(norm_us, 0.50));
      s.norm_p99.push_back(quantile(norm_us, 0.99));
    }
  }
  [[nodiscard]] std::size_t count() const {
    return plain_.ops_per_s.size() + traced_.ops_per_s.size();
  }

  /// The wall figures from the untraced slices: normalized ones to the
  /// end-to-end set, raw ones alongside.
  void report(Result& result) const {
    const auto add = [](std::vector<Metric>& to, const char* name,
                        const std::vector<double>& v, const char* unit) {
      to.push_back({name, median(v), unit, slice_spread(v)});
    };
    add(result.e2e, "norm_ops_per_s", plain_.norm_ops_per_s, "1/ref-s");
    add(result.e2e, "norm_op_us.p50", plain_.norm_p50, "ref-us");
    add(result.e2e, "norm_op_us.p99", plain_.norm_p99, "ref-us");
    add(result.e2e_extra, "ops_per_s", plain_.ops_per_s, "1/s");
    add(result.e2e_extra, "op_wall_us.p50", plain_.p50, "us");
    add(result.e2e_extra, "op_wall_us.p99", plain_.p99, "us");
    if (traced_run_) {
      const double base = median(plain_.norm_ops_per_s);
      result.layers.push_back(
          {"trace_overhead",
           base > 0.0 ? median(traced_.norm_ops_per_s) / base : 0.0, "ratio"});
    }
  }

 private:
  struct Series {
    std::vector<double> ops_per_s;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> norm_ops_per_s;
    std::vector<double> norm_p50;
    std::vector<double> norm_p99;
  };
  struct Pass {
    std::size_t ops_done;
    double seconds;
  };
  bool traced_run_;
  std::vector<Pass> passes_;
  Series plain_;
  Series traced_;
};

}  // namespace e2e
