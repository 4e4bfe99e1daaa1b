// Flag parsing and file output shared by the command-line tools.
//
// parse_flag accepts a value only if the whole string parses as a T (no
// leading space, no trailing junk, no sign on an unsigned type) and lands in
// [min, max]. Anything else prints "bad --flag value: ..." to stderr and
// returns false; the tools answer that with their usage text and exit 2, so
// a typo can never silently turn into a different (or empty) run.
//
// write_file is the one way the tools write a trace, metrics, coverage,
// curve or port file: a write that fails, even only when the buffered bytes
// are flushed at close, is reported and returns false.
#pragma once

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace rcs::cli {

namespace detail {

template <typename T>
std::string bound(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", static_cast<double>(v));
    return buf;
  } else {
    return std::to_string(v);
  }
}

}  // namespace detail

/// Parse `text` (the value following `flag`; nullptr when it is missing)
/// into `out`. `out` is left untouched on failure.
template <typename T>
bool parse_flag(const std::string& flag, const char* text,
                std::type_identity_t<T> min, std::type_identity_t<T> max,
                T& out) {
  if (text == nullptr) {
    std::fprintf(stderr, "missing %s value\n", flag.c_str());
    return false;
  }
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end ||
      !(value >= min && value <= max)) {
    std::fprintf(stderr, "bad %s value: '%s' (expected %s in [%s, %s])\n",
                 flag.c_str(), text,
                 std::is_integral_v<T> ? "an integer" : "a number",
                 detail::bound(min).c_str(), detail::bound(max).c_str());
    return false;
  }
  out = value;
  return true;
}

/// Write `data` to `path` (created or truncated). On failure print "cannot
/// write <what> to <path>: <reason>" to stderr and return false.
inline bool write_file(const std::string& path, std::string_view data,
                       const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s to %s: %s\n", what, path.c_str(),
                 std::strerror(errno));
  }
  return ok;
}

}  // namespace rcs::cli
