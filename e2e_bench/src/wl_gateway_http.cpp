// gateway_http: real loopback sockets into an in-process GatewayServer.
//
// A GatewayServer (4 workers) fronts a SimBridge running unthrottled
// (speed 0) on its own thread over PBR. One generator thread — this one —
// drives, with ppoll:
//   3 keep-alive HTTP connections on an open-loop Poisson schedule at three
//     fixed wall rates (lo / mid / hi, hi past saturation at this commit),
//     mixing 50% GET /kv/{k}, 25% POST /kv/{k}, 20% POST /kv/{k}/incr and
//     5% GET /status or /metrics; requests are pipelined and timed from the
//     instant they were due, so a stall shows in every request behind it;
//   1 WebSocket subscriber that reads and parses every frame.
// Each connection owns its keys, so its GET and incr replies are checked
// against a model of that connection's store. This is the only workload
// that crosses real sockets, the worker pool, the CommandQueue and the
// quantum boundary.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "rcs/common/rng.hpp"
#include "rcs/core/system.hpp"
#include "rcs/gateway/bridge.hpp"
#include "rcs/gateway/http.hpp"
#include "rcs/gateway/server.hpp"
#include "workloads.hpp"

namespace e2e {

using rcs::Value;

namespace {

constexpr int kSetups = 3;
constexpr std::size_t kHttpConns = 3;
constexpr int kKeysPerConn = 16;
/// Aggregate offered wall rates (requests per second) of the ladder.
constexpr double kLadderRps[3] = {2000.0, 5000.0, 15000.0};
const char* const kLadderNames[3] = {"lo", "mid", "hi"};
/// Share of each rung spent warming up before its measurement window.
constexpr double kWarmupShare = 0.15;
/// Latency limit on a window's p99, in wall ms.
constexpr double kLimitMs = 10.0;
constexpr double kDrainSeconds = 20.0;
/// Sub-windows of the mid window for the wall-latency medians; each holds
/// over a thousand requests at mid, so its p99 has ten samples beyond it.
constexpr std::size_t kSubWindows = 12;
/// Host-speed reference passes before and after the ladder.
constexpr int kReferencePasses = 9;

// --- Minimal JSON syntax check (frames and bodies must parse) ----------------

struct JsonCursor {
  std::string_view s;
  std::size_t i{0};
  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool lit(std::string_view word) {
    if (s.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E')) {
      ++i;
    }
    return i > start;
  }
  bool value(int depth) {
    if (depth > 64) return false;
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i;
      ws();
      if (i < s.size() && s[i] == close) {
        ++i;
        return true;
      }
      while (true) {
        if (c == '{') {
          ws();
          if (!string()) return false;
          ws();
          if (i >= s.size() || s[i] != ':') return false;
          ++i;
        }
        if (!value(depth + 1)) return false;
        ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        if (i < s.size() && s[i] == close) {
          ++i;
          return true;
        }
        return false;
      }
    }
    if (c == '"') return string();
    if (c == 't') return lit("true");
    if (c == 'f') return lit("false");
    if (c == 'n') return lit("null");
    return number();
  }
};

bool json_valid(std::string_view text) {
  JsonCursor cursor{text};
  if (!cursor.value(0)) return false;
  cursor.ws();
  return cursor.i == text.size();
}

/// Every non-empty line parses (JSON lines bodies).
bool json_lines_valid(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start && !json_valid(text.substr(start, end - start))) {
      return false;
    }
    start = end + 1;
  }
  return true;
}

/// The integer after `"key":` in a flat JSON object, if present.
bool json_int(std::string_view body, std::string_view key, std::int64_t& out) {
  const std::string needle = std::string("\"").append(key).append("\":");
  const auto at = body.find(needle);
  if (at == std::string_view::npos) return false;
  out = std::strtoll(std::string(body.substr(at + needle.size(), 24)).c_str(),
                     nullptr, 10);
  return true;
}

// --- Connections -----------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the gateway failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_blocking(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() to the gateway failed");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

enum class Kind { kGet, kPut, kIncr, kStatus, kMetrics };

Clock::duration wall(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Pending {
  Kind kind{Kind::kGet};
  std::string key;
  std::int64_t arg{0};
  Clock::time_point due;
  int rung{0};
  bool in_window{false};
};

struct HttpConn {
  int fd{-1};
  std::string out;
  std::string in;
  std::deque<Pending> pending;
  std::map<std::string, std::int64_t> model;
};

/// A whole gateway deployment: system, bridge thread, server, connections.
class Rig {
 public:
  explicit Rig(std::uint64_t seed) {
    rcs::core::SystemOptions options;
    options.seed = seed;
    options.start_monitoring = false;
    system_ = std::make_unique<rcs::core::ResilientSystem>(options);
    const auto start = Clock::now();
    deploy_ = system_->deploy_and_wait(rcs::ftm::FtmConfig::pbr());
    deploy_ms_ = seconds_since(start) * 1e3;
    rcs::gateway::BridgeOptions bridge_options;
    bridge_options.speed = 0.0;
    bridge_ =
        std::make_unique<rcs::gateway::SimBridge>(*system_, bridge_options);
    rcs::gateway::ServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<rcs::gateway::GatewayServer>(*bridge_,
                                                            server_options);
    std::string error;
    if (!server_->start(&error)) throw std::runtime_error("gateway: " + error);
    bridge_->set_publisher(
        [this](const std::string& frame) { server_->publish(frame); });
    events_before_ = system_->sim().loop().processed();
    link_before_ = replica_link();
    cpu_before_ = cpu_used();
    sim_thread_ = std::thread([this] { bridge_->run(); });
    try {
      connect_all();
    } catch (...) {
      stop();
      throw;
    }
  }

  void connect_all() {
    for (std::size_t c = 0; c < kHttpConns; ++c) {
      conns_.emplace_back();
      conns_.back().fd = connect_loopback(server_->port());
    }
    ws_fd_ = connect_loopback(server_->port());
    send_blocking(ws_fd_,
                  "GET /ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\n"
                  "Connection: Upgrade\r\nSec-WebSocket-Version: 13\r\n"
                  "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n");
    // Read the 101 handshake; frames that follow stay in ws_in_.
    while (ws_in_.find("\r\n\r\n") == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(ws_fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("websocket handshake failed");
      ws_in_.append(chunk, static_cast<std::size_t>(n));
    }
    if (ws_in_.rfind("HTTP/1.1 101", 0) != 0) {
      throw std::runtime_error("websocket upgrade refused");
    }
    ws_in_.erase(0, ws_in_.find("\r\n\r\n") + 4);
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  ~Rig() { stop(); }

  /// Close the client side, stop the server, stop and join the sim thread.
  void stop() {
    for (auto& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
    if (ws_fd_ >= 0) ::close(ws_fd_);
    ws_fd_ = -1;
    if (server_) server_->stop();
    if (sim_thread_.joinable()) {
      bridge_->request_stop();
      sim_thread_.join();
    }
  }

  rcs::core::ResilientSystem& system() { return *system_; }
  rcs::gateway::SimBridge& bridge() { return *bridge_; }
  std::vector<HttpConn>& conns() { return conns_; }
  int ws_fd() const { return ws_fd_; }
  std::string& ws_in() { return ws_in_; }
  const rcs::core::TransitionReport& deploy() const { return deploy_; }
  double deploy_ms() const { return deploy_ms_; }
  std::uint64_t events_before() const { return events_before_; }
  const rcs::sim::LinkStats& link_before() const { return link_before_; }
  std::int64_t cpu_before() const { return cpu_before_; }

  rcs::sim::LinkStats replica_link() {
    return system_->sim().network().link_stats(system_->replica(0).id(),
                                               system_->replica(1).id());
  }
  std::int64_t cpu_used() {
    std::int64_t total = 0;
    for (std::size_t r = 0; r < system_->replica_count(); ++r) {
      total += system_->replica(r).meter().cpu_used();
    }
    return total;
  }

 private:
  std::unique_ptr<rcs::core::ResilientSystem> system_;
  rcs::core::TransitionReport deploy_;
  double deploy_ms_{0.0};
  std::unique_ptr<rcs::gateway::SimBridge> bridge_;
  std::unique_ptr<rcs::gateway::GatewayServer> server_;
  std::uint64_t events_before_{0};
  rcs::sim::LinkStats link_before_;
  std::int64_t cpu_before_{0};
  std::vector<HttpConn> conns_;
  int ws_fd_{-1};
  std::string ws_in_;
  std::thread sim_thread_;
};

/// Per-rung measurements, generator side.
struct Rung {
  Clock::time_point start;
  Clock::time_point window_start;
  Clock::time_point end;
  std::size_t backlog_start{0};
  std::size_t backlog_end{0};
  std::uint64_t attempted{0};
  std::uint64_t misses{0};
  std::uint64_t completed_in_window{0};
  std::vector<double> latency_us;     // due -> response, window requests
  std::vector<double> latency_due_s;  // when each of those was due

  [[nodiscard]] double window_s() const {
    return std::chrono::duration<double>(end - window_start).count();
  }
  /// Responses per second that arrived inside the measurement window.
  [[nodiscard]] double window_rps() const {
    return static_cast<double>(completed_in_window) / window_s();
  }
};

/// The open-loop generator: schedules, writes, reads and checks.
class Generator {
 public:
  Generator(Rig& rig, std::uint64_t seed, Result& result, LayerInputs& inputs)
      : rig_(rig), rng_(seed), result_(result), inputs_(inputs) {
    for (auto& conn : rig_.conns()) {
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    }
    ::fcntl(rig_.ws_fd(), F_SETFL, ::fcntl(rig_.ws_fd(), F_GETFL) | O_NONBLOCK);
  }

  /// Run the three-rung ladder over `seconds`, then drain.
  void run_ladder(double seconds) {
    const auto t0 = Clock::now();
    const double rung_s = seconds / 3.0;
    for (int r = 0; r < 3; ++r) {
      Rung& rung = rungs_[r];
      rung.start = t0 + wall(rung_s * r);
      rung.window_start = rung.start + wall(rung_s * kWarmupShare);
      rung.end = t0 + wall(rung_s * (r + 1));
    }
    next_due_ = t0;
    int marked = 0;  // window boundaries already sampled (start, end per rung)
    while (true) {
      const auto now = Clock::now();
      // Backlog at each window boundary.
      while (marked < 6) {
        const Rung& rung = rungs_[marked / 2];
        const auto at = marked % 2 == 0 ? rung.window_start : rung.end;
        if (now < at) break;
        (marked % 2 == 0 ? rungs_[marked / 2].backlog_start
                         : rungs_[marked / 2].backlog_end) = outstanding();
        ++marked;
      }
      if (now >= rungs_[2].end) break;
      while (next_due_ <= now && next_due_ < rungs_[2].end) issue(now);
      flush();
      wait_and_read(next_due_);
    }
    const auto drain_until = Clock::now() + wall(kDrainSeconds);
    while (outstanding() > 0 && Clock::now() < drain_until) {
      flush();
      wait_and_read(Clock::now() + std::chrono::milliseconds(5));
    }
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& conn : rig_.conns()) n += conn.pending.size();
    return n;
  }
  [[nodiscard]] const Rung& rung(int r) const { return rungs_[r]; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected_503() const { return rejected_503_; }
  [[nodiscard]] std::uint64_t ws_frames() const { return ws_frames_; }
  [[nodiscard]] const std::vector<double>& late_us() const { return late_us_; }

 private:
  [[nodiscard]] int rung_of(Clock::time_point t) const {
    for (int r = 0; r < 3; ++r) {
      if (t < rungs_[r].end) return r;
    }
    return 2;
  }

  /// Issue the request due at next_due_ and draw the next arrival.
  void issue(Clock::time_point now) {
    Span span("gateway.generator::issue", "gateway");
    const int r = rung_of(next_due_);
    auto& conn = rig_.conns()[static_cast<std::size_t>(
        rng_.uniform_int(0, kHttpConns - 1))];
    const auto conn_index =
        static_cast<std::size_t>(&conn - rig_.conns().data());
    Pending p;
    p.due = next_due_;
    p.rung = r;
    p.in_window = next_due_ >= rungs_[r].window_start;
    p.key = std::string("c")
                .append(std::to_string(conn_index))
                .append("k")
                .append(std::to_string(rng_.uniform_int(0, kKeysPerConn - 1)));
    const double pick = rng_.uniform();
    std::string request;
    Value op = Value::map().set("key", p.key);
    if (pick < 0.50) {
      p.kind = Kind::kGet;
      op.set("op", "get");
    } else if (pick < 0.75) {
      p.kind = Kind::kPut;
      p.arg = rng_.uniform_int(0, 999);
      op.set("op", "put").set("value", p.arg);
    } else if (pick < 0.95) {
      p.kind = Kind::kIncr;
      p.arg = rng_.uniform_int(1, 3);
      op.set("op", "incr").set("by", p.arg);
    } else {
      p.kind = rng_.uniform() < 0.5 ? Kind::kStatus : Kind::kMetrics;
      request = std::string("GET ")
                    .append(p.kind == Kind::kStatus ? "/status" : "/metrics")
                    .append(" HTTP/1.1\r\nHost: bench\r\n\r\n");
    }
    if (request.empty()) {
      request = http_request_for(op);
      inputs_.record_request(op);
    }
    late_us_.push_back(micros(now - p.due));
    conn.out += request;
    if (p.in_window) ++rungs_[r].attempted;
    conn.pending.push_back(std::move(p));
    ++result_.attempted;
    const double rate = kLadderRps[r];
    next_due_ += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - rng_.uniform()) / rate));
  }

  void flush() {
    for (auto& conn : rig_.conns()) {
      while (!conn.out.empty()) {
        const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n <= 0) break;
        conn.out.erase(0, static_cast<std::size_t>(n));
      }
    }
  }

  /// ppoll until `until` (or readable data), then read and check.
  void wait_and_read(Clock::time_point until) {
    pollfd fds[kHttpConns + 1];
    for (std::size_t c = 0; c < kHttpConns; ++c) {
      const HttpConn& conn = rig_.conns()[c];
      const int events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
      fds[c] = {conn.fd, static_cast<short>(events), 0};
    }
    fds[kHttpConns] = {rig_.ws_fd(), POLLIN, 0};
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                     static_cast<long>(ns % 1'000'000'000)};
    int ready = 0;
    {
      Span span("gateway.ppoll", "gateway");
      ready = ::ppoll(fds, kHttpConns + 1, &timeout, nullptr);
    }
    if (ready <= 0) return;
    for (std::size_t c = 0; c < kHttpConns; ++c) {
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_http(rig_.conns()[c]);
      }
    }
    if (fds[kHttpConns].revents & (POLLIN | POLLHUP | POLLERR)) read_ws();
  }

  /// One non-blocking read per wake-up, so a busy stream cannot hold the
  /// generator away from its schedule.
  static void fill(int fd, std::string& buffer) {
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) buffer.append(chunk, static_cast<std::size_t>(n));
  }

  void read_http(HttpConn& conn) {
    Span span("gateway.generator::read_http", "gateway");
    fill(conn.fd, conn.in);
    while (true) {
      const auto header_end = conn.in.find("\r\n\r\n");
      if (header_end == std::string::npos) return;
      std::size_t length = 0;
      const auto cl = conn.in.find("Content-Length: ");
      if (cl != std::string::npos && cl < header_end) {
        length = std::strtoul(conn.in.c_str() + cl + 16, nullptr, 10);
      }
      const std::size_t total = header_end + 4 + length;
      if (conn.in.size() < total) return;
      const auto now = Clock::now();
      const int status = std::atoi(conn.in.c_str() + 9);
      const std::string_view body(conn.in.data() + header_end + 4, length);
      if (conn.pending.empty()) {
        result_.fail("response without a request");
      } else {
        complete(conn, conn.pending.front(), status, body, now);
        conn.pending.pop_front();
      }
      conn.in.erase(0, total);
    }
  }

  void complete(HttpConn& conn, const Pending& p, int status,
                std::string_view body, Clock::time_point now) {
    ++completed_;
    const double us = micros(now - p.due);
    bool ok = status == 200;
    if (status == 503) ++rejected_503_;
    if (ok) {
      std::int64_t value = 0;
      switch (p.kind) {
        case Kind::kGet: {
          const auto it = conn.model.find(p.key);
          const bool found =
              body.find("\"found\":true") != std::string_view::npos;
          ok = found == (it != conn.model.end()) &&
               (!found ||
                (json_int(body, "value", value) && value == it->second));
          break;
        }
        case Kind::kPut:
          conn.model[p.key] = p.arg;
          ok = body.find("\"ok\":true") != std::string_view::npos;
          break;
        case Kind::kIncr:
          ok = json_int(body, "value", value) &&
               value == (conn.model[p.key] += p.arg);
          break;
        case Kind::kStatus:
          ok = json_lines_valid(body);
          break;
        case Kind::kMetrics:
          ok = json_lines_valid(body);
          break;
      }
    }
    if (!ok) {
      result_.fail("HTTP " + std::to_string(status) +
                   " or wrong reply for " + p.key);
    }
    Rung& rung = rungs_[p.rung];
    if (p.in_window) {
      rung.latency_us.push_back(us);
      rung.latency_due_s.push_back(
          std::chrono::duration<double>(p.due - rung.window_start).count());
      if (!ok || us > kLimitMs * 1e3) ++rung.misses;
    }
    if (now >= rung.window_start && now < rung.end) ++rung.completed_in_window;
  }

  void read_ws() {
    Span span("gateway.generator::read_ws", "gateway");
    std::string& in = rig_.ws_in();
    const auto byte = [&in](std::size_t i) -> std::uint64_t {
      return static_cast<unsigned char>(in[i]);
    };
    fill(rig_.ws_fd(), in);
    while (in.size() >= 2) {
      const auto b0 = byte(0);
      const auto b1 = byte(1);
      std::size_t header = 2;
      std::uint64_t length = b1 & 0x7F;
      if (length == 126) {
        if (in.size() < 4) return;
        length = (byte(2) << 8) | byte(3);
        header = 4;
      } else if (length == 127) {
        if (in.size() < 10) return;
        length = 0;
        for (std::size_t i = 2; i < 10; ++i) length = (length << 8) | byte(i);
        header = 10;
      }
      if (in.size() < header + length) return;
      if ((b0 & 0x0F) == 0x1) {
        ++ws_frames_;
        if (!json_valid(std::string_view(in).substr(header, length))) {
          result_.fail("websocket frame does not parse");
        }
      }
      in.erase(0, header + length);
    }
  }

  Rig& rig_;
  rcs::Rng rng_;
  Result& result_;
  LayerInputs& inputs_;
  Rung rungs_[3];
  Clock::time_point next_due_;
  std::uint64_t completed_{0};
  std::uint64_t rejected_503_{0};
  std::uint64_t ws_frames_{0};
  std::vector<double> late_us_;
};

}  // namespace

void run_gateway_http(const Options& options, Result& result,
                      LayerInputs& inputs) {
  std::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<Rig> rig;
  std::vector<double> deploy_ms;
  const double setup_s = median_setup_s(kSetups, [&](int) {
    rig.reset();
    rig = std::make_unique<Rig>(options.seed);
    deploy_ms.push_back(rig->deploy_ms());
  });

  std::vector<double> reference_before;
  for (int i = 0; i < kReferencePasses; ++i) {
    reference_before.push_back(reference_pass_s());
  }
  Generator generator(*rig, options.seed, result, inputs);
  const AllocCounts a0 = alloc_counts();
  const auto start = Clock::now();
  generator.run_ladder(options.seconds);
  const double wall_s = seconds_since(start);
  const AllocCounts a1 = alloc_counts();
  const std::uint64_t completed = generator.completed();
  const std::size_t lost = generator.outstanding();
  for (std::size_t i = 0; i < lost; ++i) result.fail("request never answered");

  // Trace run: a second, traced ladder on the same deployment; the ratio of
  // the two hi-rung throughputs is the tracing overhead.
  double traced_hi_rps = 0.0;
  if (options.trace) {
    spans().set_enabled(true);
    Generator traced(*rig, options.seed + 1, result, inputs);
    traced.run_ladder(options.seconds);
    spans().set_enabled(false);
    traced_hi_rps = traced.rung(2).window_rps();
    for (std::size_t i = 0; i < traced.outstanding(); ++i) {
      result.fail("request never answered");
    }
  }
  auto& system = rig->system();
  auto& bridge = rig->bridge();
  rig->stop();  // joins the sim thread: the system is ours to read again
  const auto as_double = [](auto v) { return static_cast<double>(v); };

  // End-to-end figures. Wall latencies at mid come as the median over
  // consecutive sub-windows (by due time) with their spread: a scheduler
  // stall on this shared host lands in a few sub-windows, not in all.
  const auto sub_windows = [](const Rung& rung, double q) {
    std::vector<std::vector<double>> parts(kSubWindows);
    for (std::size_t i = 0; i < rung.latency_us.size(); ++i) {
      const double at = rung.latency_due_s[i] / rung.window_s();
      const auto k = static_cast<std::size_t>(
          std::clamp(at * kSubWindows, 0.0, kSubWindows - 1.0));
      parts[k].push_back(rung.latency_us[i]);
    }
    std::vector<double> out;
    for (const auto& part : parts) {
      if (!part.empty()) out.push_back(quantile(part, q));
    }
    return out;
  };
  const double hi_rps = generator.rung(2).window_rps();
  const auto mid_p50 = sub_windows(generator.rung(1), 0.50);
  const auto mid_p99 = sub_windows(generator.rung(1), 0.99);
  // The generator cannot pause for reference passes mid-ladder; the host
  // speed factor comes from passes run just before and after it.
  std::vector<double> passes = reference_before;
  for (int i = 0; i < kReferencePasses; ++i) {
    passes.push_back(reference_pass_s());
  }
  const double slow = median(passes) / kReferencePassS;
  const double n = as_double(std::max<std::uint64_t>(completed, 1));
  const double allocs = as_double(a1.count - a0.count);
  const auto& client_stats = bridge.client().stats();
  result.e2e.push_back({"setup_s", setup_s, "s"});
  result.e2e.push_back({"norm_ops_per_s", hi_rps * slow, "1/ref-s"});
  result.e2e.push_back({"norm_op_us.p50", median(mid_p50) / slow, "ref-us"});
  result.e2e.push_back({"norm_op_us.p99", median(mid_p99) / slow, "ref-us"});
  result.e2e.push_back({"allocs_per_op", allocs / n, "count"});
  result.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result.e2e_extra.push_back({"ops_per_s", hi_rps, "1/s"});
  result.e2e_extra.push_back(
      {"op_wall_us.p50", median(mid_p50), "us", slice_spread(mid_p50)});
  result.e2e_extra.push_back(
      {"op_wall_us.p99", median(mid_p99), "us", slice_spread(mid_p99)});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p50", client_stats.latency_quantile_ms(0.50), "ms"});
  result.e2e_extra.push_back(
      {"virt_lat_ms.p99", client_stats.latency_quantile_ms(0.99), "ms"});

  std::uint64_t attempted = 0;
  std::uint64_t misses = 0;
  double capacity = 0.0;
  bool below_knee = true;
  for (int r = 0; r < 3; ++r) {
    const Rung& rung = generator.rung(r);
    attempted += rung.attempted;
    misses += rung.misses;
    const double p50 = quantile(rung.latency_us, 0.50);
    const double p99 = quantile(rung.latency_us, 0.99);
    const bool growing = as_double(rung.backlog_end) >
                         as_double(rung.backlog_start) +
                             0.05 * as_double(rung.attempted);
    below_knee = below_knee && p99 <= kLimitMs * 1e3 && !growing;
    if (below_knee) capacity = kLadderRps[r];
    const std::string suffix = kLadderNames[r];
    result.layer_extra.push_back({"gateway.wall_us.p50." + suffix, p50, "us"});
    result.layer_extra.push_back({"gateway.wall_us.p99." + suffix, p99, "us"});
    result.layer_extra.push_back({"gateway.backlog_end." + suffix,
                                  as_double(rung.backlog_end), "count"});
  }
  result.e2e_extra.push_back(
      {"slo_miss_share",
       as_double(misses) / as_double(std::max<std::uint64_t>(attempted, 1)),
       "ratio"});
  result.e2e_extra.push_back({"capacity_rps", capacity, "rps"});

  const auto events = system.sim().loop().processed() - rig->events_before();
  result.layer_extra.push_back({"gateway.gen_late_ms.p99",
                                quantile(generator.late_us(), 0.99) / 1e3,
                                "ms"});
  result.layer_extra.push_back(
      {"gateway.rejected_503", as_double(generator.rejected_503()), "count"});
  result.layer_extra.push_back({"gateway.ws_frames_per_s",
                                as_double(generator.ws_frames()) / wall_s,
                                "1/s"});
  result.layer_extra.push_back({"gateway.sim_events_per_wall_s",
                                as_double(events) / wall_s, "1/s"});

  // Per-layer figures: allocations over the untraced ladder, counters over
  // every request sent (traced ladder included).
  const double ops = as_double(std::max<std::uint64_t>(result.attempted, 1));
  const auto link = rig->replica_link();
  const auto& before = rig->link_before();
  result.layers.push_back({"common.allocs_per_op", allocs / n, "count"});
  result.layers.push_back({"common.heap_bytes_per_op",
                           as_double(a1.bytes - a0.bytes) / n, "B"});
  result.layers.push_back(
      {"sim.events_per_op", as_double(events) / ops, "count"});
  result.layers.push_back(
      {"sim.events_per_wall_s", as_double(events) / wall_s, "1/s"});
  result.layers.push_back({"sim.peak_queue_depth",
                           as_double(system.sim().loop().peak_pending()),
                           "count"});
  result.layers.push_back({"sim.link_bytes_per_op",
                           as_double(link.bytes - before.bytes) / ops, "B"});
  result.layers.push_back({"sim.link_msgs_per_op",
                           as_double(link.messages - before.messages) / ops,
                           "count"});
  result.layer_extra.push_back(
      {"sim.cpu_virtual_ms_per_op",
       as_double(rig->cpu_used() - rig->cpu_before()) / 1e3 / ops, "ms"});
  result.layers.push_back({"ftm.retries_per_op",
                           as_double(client_stats.retries) / ops, "count"});
  result.layers.push_back(
      {"ftm.gave_up", as_double(client_stats.gave_up), "count"});
  result.layers.push_back({"core.deploy_ms", median(deploy_ms), "ms"});
  add_report_layers({rig->deploy()}, result);
  if (options.trace) {
    result.layers.push_back(
        {"trace_overhead", hi_rps > 0.0 ? traced_hi_rps / hi_rps : 0.0,
         "ratio"});
  }

  for (const auto& reply : kvstore_results(inputs.requests)) {
    inputs.record_reply(reply);
  }
  inputs.adaptations.push_back(Adaptation::deploy(rcs::ftm::FtmConfig::pbr()));
  const auto add_size = [&](rcs::HostId a, rcs::HostId b) {
    const auto stats = system.sim().network().link_stats(a, b);
    if (stats.messages > 0) {
      inputs.message_sizes.push_back(stats.bytes / stats.messages);
    }
  };
  add_size(system.replica(0).id(), system.replica(1).id());
  add_size(system.replica(1).id(), system.replica(0).id());
}

}  // namespace e2e
