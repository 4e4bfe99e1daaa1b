// Measurement harness shared by the end-to-end benchmark's workloads.
//
//  - a counting allocation hook (harness.cpp replaces the global operator
//    new/delete; it only counts and forwards to malloc/free),
//  - wall clock, quantiles and slice spreads,
//  - an in-memory span recorder for the traced run (Chrome trace export plus
//    per-layer self time = span duration minus its children),
//  - the result record every workload fills and main() prints.
//
// Spans are recorded only from the benchmark's own files, around calls into
// the repository's public API; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

// --- Allocation hook ---------------------------------------------------------

struct AllocCounts {
  std::uint64_t count{0};
  std::uint64_t bytes{0};
};
/// Allocations made by the whole process (every thread) so far.
[[nodiscard]] AllocCounts alloc_counts();

// --- Clock and statistics --------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Interquartile range over the median: how much the slices of one run
/// disagree. 0 when fewer than two values or a zero median.
[[nodiscard]] double slice_spread(const std::vector<double>& values);

/// One pass of the host-speed reference loop: a fixed, allocation-heavy
/// std::map/std::string workload owned by the benchmark (it never changes
/// with the program). Returns its wall time in seconds. Timed slices run it
/// between their operations; on a shared host whose speed drifts by tens of
/// percent from one run to the next, the program's time over the loop's time
/// measured alongside it is far steadier than either alone.
[[nodiscard]] double reference_pass_s();
/// The normalized unit: wall time is reported as if one reference pass took
/// exactly this long ("ref-us": microseconds on such a host).
inline constexpr double kReferencePassS = 1e-3;

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// --- Spans -----------------------------------------------------------------

class SpanRecorder {
 public:
  /// Spans kept for the Chrome export; beyond this only the per-layer
  /// totals keep counting, so a long traced run stays bounded in memory.
  static constexpr std::size_t kExportCap = 200'000;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open span. `name` and `layer` must be
  /// string literals (they are stored by pointer).
  void begin(const char* name, const char* layer, std::uint64_t op);
  void end();

  struct LayerTotals {
    std::uint64_t spans{0};
    double total_ns{0.0};
    double self_ns{0.0};
  };
  [[nodiscard]] const std::map<std::string, LayerTotals>& layers() const {
    return layers_;
  }
  /// Chrome trace_event JSON (complete "X" events, microsecond timestamps);
  /// returns false if the file could not be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    const char* layer;
    std::uint64_t op;
    std::int64_t start_ns;
    double child_ns;
    std::int64_t id;
  };
  struct Done {
    const char* name;
    const char* layer;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t id;
    std::int64_t parent;
  };

  bool enabled_{false};
  std::int64_t next_id_{1};
  Clock::time_point origin_{Clock::now()};
  std::vector<Open> stack_;
  std::vector<Done> done_;
  std::map<std::string, LayerTotals> layers_;
};

/// The process-wide recorder (the benchmark drives the program from one
/// thread; generator-side spans of the gateway workload run there too).
SpanRecorder& spans();

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t op = 0)
      : active_(spans().enabled()) {
    if (active_) spans().begin(name, layer, op);
  }
  ~Span() {
    if (active_) spans().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  /// Interquartile range / median over the run's timed slices; negative
  /// when the metric is not a wall-clock figure taken over slices.
  double spread{-1.0};
};

struct Result {
  /// The end-to-end metrics every workload reports (BENCHMARK.json).
  std::vector<Metric> e2e;
  /// End-to-end metrics that only apply to this workload.
  std::vector<Metric> e2e_extra;
  /// The per-layer metrics every workload reports in the traced run.
  std::vector<Metric> layers;
  /// Per-layer metrics that only apply to this workload.
  std::vector<Metric> layer_extra;
  /// Free-form lines (layers a public call could not isolate, ...).
  std::vector<std::string> notes;

  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// The first few output-check failures, for the log.
  std::vector<std::string> failures;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 10) failures.push_back(std::move(what));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Median over `setups` calls of `fn` (seconds), for the setup_s metric.
template <typename F>
double median_setup_s(int setups, F&& fn) {
  std::vector<double> times;
  for (int i = 0; i < setups; ++i) {
    const auto start = Clock::now();
    fn(i);
    times.push_back(seconds_since(start));
  }
  return median(times);
}

}  // namespace e2e
