// Structured trace spans over virtual time (observability plane, PR 3).
//
// Every host gets a bounded ring buffer of span records; a span is a named
// interval [start, start+dur] of simulated microseconds, optionally tagged
// with a trace id (a client request id carried end-to-end through protocol
// messages) and one numeric argument (bytes shipped, peer id, ...). Span
// names are interned once — the record itself is five machine words, and
// recording into the ring never allocates. When the ring wraps, the oldest
// spans are overwritten and counted as dropped.
//
// The tracer is compiled in but disabled by default: every instrumentation
// site guards on enabled(), which is a single byte load, so a build with
// tracing available pays nothing on the hot path until a tool
// (chaos_runner --replay --trace-out, load_runner --scenario adapt
// --trace-out) switches it on.
//
// export_chrome_json() merges the per-host rings into Chrome trace_event
// JSON ("X" complete events on pid = host id, tid = trace id), loadable in
// chrome://tracing or Perfetto. The export is byte-identical across runs of
// the same seed: all fields are integers derived from virtual time and the
// merge order is a total, content-based order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rcs::obs {

using NameId = std::uint32_t;

struct SpanRecord {
  std::int64_t start{0};  // virtual µs
  std::int64_t dur{0};    // virtual µs; < 0 marks an instant event
  std::uint64_t trace{0};  // correlation id; 0 = none
  std::int64_t arg{0};    // span-specific numeric payload; 0 = none
  NameId name{0};

  [[nodiscard]] bool is_instant() const { return dur < 0; }
};

/// Fixed-capacity overwrite-oldest ring of span records.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : slots_(capacity) {}

  void push(const SpanRecord& record) {
    if (size_ == slots_.size()) ++dropped_;
    slots_[head_] = record;
    head_ = (head_ + 1) % slots_.size();
    if (size_ < slots_.size()) ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Visit records oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t oldest = (head_ + slots_.size() - size_) % slots_.size();
    for (std::size_t i = 0; i < size_; ++i) {
      fn(slots_[(oldest + i) % slots_.size()]);
    }
  }

 private:
  std::vector<SpanRecord> slots_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::uint64_t dropped_{0};
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Ring capacity for hosts whose ring has not been created yet (i.e. call
  /// before the first record lands on that host).
  void set_ring_capacity(std::size_t capacity) { ring_capacity_ = capacity; }

  /// Intern a span name; the same string always maps to the same id within
  /// one tracer. Cold path (instrumentation sites cache the id).
  NameId intern(std::string_view name);
  [[nodiscard]] const std::string& name_of(NameId id) const;

  /// Human label for a pid in the export (host id -> host name).
  void set_host_name(std::uint32_t host, std::string name);

  void span(std::uint32_t host, NameId name, std::uint64_t trace,
            std::int64_t start, std::int64_t end, std::int64_t arg = 0) {
    if (!enabled_) return;
    record(host, SpanRecord{start, end - start, trace, arg, name});
  }
  void instant(std::uint32_t host, NameId name, std::uint64_t trace,
               std::int64_t at, std::int64_t arg = 0) {
    if (!enabled_) return;
    record(host, SpanRecord{at, -1, trace, arg, name});
  }

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const;
  /// Total records currently held across all rings.
  [[nodiscard]] std::size_t stored() const;

  /// Merge all rings into Chrome trace_event JSON.
  [[nodiscard]] std::string export_chrome_json() const;

 private:
  void record(std::uint32_t host, const SpanRecord& span);

  bool enabled_{false};
  std::size_t ring_capacity_{65536};
  std::uint64_t recorded_{0};
  std::vector<std::string> names_;
  std::map<std::string, NameId, std::less<>> name_index_;
  std::map<std::uint32_t, SpanRing> rings_;
  std::map<std::uint32_t, std::string> host_names_;
};

}  // namespace rcs::obs
