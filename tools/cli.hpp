// Flag parsing and file output shared by the command-line tools.
//
// Each tool declares its flags once, as a Flags table of numeric, text,
// choice and switch entries, and lets Flags::parse walk argv. A missing
// value, a value its entry rejects or an unknown argument prints one line to
// stderr ("missing --X value", "bad --X value: ...", "unknown argument: ...")
// and then the usage text, and the tool exits 2, so a typo can never
// silently turn into a different (or empty) run. A tool with several modes
// marks each flag with the modes that read it, and a flag given in a mode
// that does not read it is rejected the same way. --help / -h prints the
// usage text and exits 0.
//
// parse_flag, behind the numeric entries, accepts a value only if the whole
// string parses as a T (no leading space, no trailing junk, no sign on an
// unsigned type) and lands in [min, max].
//
// write_file is the one way the tools write a trace, metrics, coverage,
// curve or port file: a write that fails, even only when the buffered bytes
// are flushed at close, is reported and returns false. write_trace_artifacts
// serves the --trace-out / --metrics-out pair of chaos_runner --replay and
// load_runner --scenario adapt.
#pragma once

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "rcs/common/logging.hpp"

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

/// A tool's flag table. Entries bind to the tool's own variables, which
/// keep their defaults unless the flag is given; a rejected value leaves
/// its variable untouched.
class Flags {
 public:
  explicit Flags(const char* usage) : usage_(usage) {}

  /// A number in [min, max], parsed by parse_flag.
  template <typename T>
  Flags& number(const char* name, std::type_identity_t<T> min,
                std::type_identity_t<T> max, T& out) {
    return add(name, true, [name, min, max, &out](const char* value) {
      return parse_flag(name, value, min, max, out);
    });
  }

  /// Any value that `check` (when set) accepts. `check` rejects a value by
  /// throwing; its message follows "bad --X value: 'V': ".
  Flags& text(const char* name, std::string& out,
              std::function<void(const std::string&)> check = {}) {
    return add(name, true, [name, &out, check](const char* value) {
      if (check) {
        try {
          check(value);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bad %s value: '%s': %s\n", name, value,
                       e.what());
          return false;
        }
      }
      out = value;
      return true;
    });
  }

  /// Exactly one of `choices`.
  Flags& choice(const char* name, std::vector<std::string> choices,
                std::string& out) {
    return add(name, true, [name, choices, &out](const char* value) {
      for (const auto& c : choices) {
        if (c == value) {
          out = value;
          return true;
        }
      }
      std::string expected;
      for (const auto& c : choices) {
        expected += (expected.empty() ? "" : "|") + c;
      }
      std::fprintf(stderr, "bad %s value: '%s' (expected %s)\n", name, value,
                   expected.c_str());
      return false;
    });
  }

  /// A switch: takes no value and sets `out`.
  Flags& toggle(const char* name, bool& out) {
    return add(name, false, [&out](const char*) {
      out = true;
      return true;
    });
  }

  /// Restrict the flag added last to the modes set in `modes`, a bit mask
  /// the tool defines. A flag belongs to every mode until restricted.
  Flags& only(unsigned modes) {
    entries_.back().modes = modes;
    return *this;
  }

  /// After parse, reject a given flag that `mode` does not read, so it
  /// cannot be silently ignored: print "bad --X value: not read <where>"
  /// and the usage text, and return the exit status, 2.
  std::optional<int> check_mode(unsigned mode, const char* where) const {
    for (const auto& entry : entries_) {
      if (entry.given && (entry.modes & mode) == 0) {
        return fail("bad " + entry.name + " value: not read " + where);
      }
    }
    return std::nullopt;
  }

  /// Walk argv. Returns the tool's exit status when it must stop now (0
  /// after --help, 2 after an error, usage printed either way), nullopt
  /// when it should run.
  std::optional<int> parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::puts(usage_);
        return 0;
      }
      Entry* entry = find(arg);
      if (entry == nullptr) {
        return fail("unknown argument: " + std::string(arg));
      }
      const char* value = nullptr;
      if (entry->takes_value) {
        if (i + 1 == argc) return fail("missing " + entry->name + " value");
        value = argv[++i];
      }
      if (!entry->take(value)) return usage_error();
      entry->given = true;
    }
    return std::nullopt;
  }

  /// True when `name` was given (and accepted) on the command line.
  [[nodiscard]] bool given(std::string_view name) const {
    for (const auto& entry : entries_) {
      if (entry.name == name) return entry.given;
    }
    return false;
  }

  /// Reject the command line after parse (a check across flags): print
  /// `message` and the usage text, and return the exit status, 2.
  int fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n", message.c_str());
    return usage_error();
  }

 private:
  struct Entry {
    std::string name;
    bool takes_value;
    /// Validate and store the value (nullptr for a switch); on rejection
    /// print the diagnostic and return false.
    std::function<bool(const char*)> take;
    bool given{false};
    unsigned modes{~0u};
  };

  Flags& add(const char* name, bool takes_value,
             std::function<bool(const char*)> take) {
    entries_.push_back({name, takes_value, std::move(take)});
    return *this;
  }

  Entry* find(std::string_view name) {
    for (auto& entry : entries_) {
      if (entry.name == name) return &entry;
    }
    return nullptr;
  }

  int usage_error() const {
    std::puts(usage_);
    return 2;
  }

  const char* usage_;
  std::vector<Entry> entries_;
};

/// The runners' shared --verbose: info-level logging, echoed on stderr.
/// Without it only warnings and errors are logged.
inline void set_log_level(bool verbose) {
  log().set_level(verbose ? LogLevel::kInfo : LogLevel::kWarn);
  if (verbose) log().set_stderr_level(LogLevel::kInfo);
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

/// The --trace-out / --metrics-out pair: write each artifact whose path is
/// set. False (reported) if a write fails.
inline bool write_trace_artifacts(const std::string& trace_out,
                                  std::string_view trace_json,
                                  const std::string& metrics_out,
                                  std::string_view metrics_json) {
  return (trace_out.empty() || write_file(trace_out, trace_json, "trace")) &&
         (metrics_out.empty() ||
          write_file(metrics_out, metrics_json, "metrics"));
}

}  // namespace rcs::cli
