#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

// --- Counting allocation hook ----------------------------------------------
//
// Replaces the global allocation functions for this binary only. Each call
// bumps two relaxed atomics (the gateway workload allocates from several
// threads) and forwards to malloc/free, so allocation behaviour is the
// system allocator's.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace e2e {

AllocCounts alloc_counts() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double slice_spread(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  return (quantile(values, 0.75) - quantile(values, 0.25)) / mid;
}

double reference_pass_s() {
  const auto start = Clock::now();
  std::map<std::string, std::int64_t> counts;
  std::vector<std::string> window;
  for (int i = 0; i < 2000; ++i) {
    counts[std::string("key").append(std::to_string(i % 500))] += i;
    window.push_back(std::to_string(i * 7919));
    if (window.size() > 64) window.erase(window.begin());
  }
  std::int64_t sum = 0;
  for (const auto& [key, count] : counts) {
    sum += count + static_cast<std::int64_t>(key.size());
  }
  asm volatile("" : : "g"(sum) : "memory");
  return seconds_since(start);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

namespace {
std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}
}  // namespace

void SpanRecorder::begin(const char* name, const char* layer,
                         std::uint64_t op) {
  stack_.push_back({name, layer, op, ns_since(origin_), 0.0, next_id_++});
}

void SpanRecorder::end() {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t end_ns = ns_since(origin_);
  const double dur = static_cast<double>(end_ns - open.start_ns);
  auto& totals = layers_[open.layer];
  ++totals.spans;
  totals.total_ns += dur;
  totals.self_ns += std::max(0.0, dur - open.child_ns);
  const std::int64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (done_.size() < kExportCap) {
    done_.push_back({open.name, open.layer, open.op, open.start_ns, end_ns,
                     open.id, parent});
  }
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  for (std::size_t i = 0; i < done_.size(); ++i) {
    const Done& s = done_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%lld,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace e2e
