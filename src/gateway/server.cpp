#include "rcs/gateway/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

namespace rcs::gateway {

namespace {

/// poll() period: timeouts are checked at least this often.
constexpr auto kTick = std::chrono::milliseconds(250);
/// An HTTP connection that makes no progress this long is closed.
constexpr auto kIdleTimeout = std::chrono::seconds(60);
/// Budget of a bridged request. /adapt gets twice this: a transition
/// fetches packages and runs reconfiguration scripts.
constexpr auto kRequestTimeout = std::chrono::seconds(30);
/// Unsent bytes past which a WebSocket subscriber is dropped as lagging.
constexpr std::size_t kMaxOutBuffer = 1 << 20;
/// Frames publish() may queue for the loop; the oldest goes first.
constexpr std::size_t kMaxPendingFrames = 64;
/// Bytes read per readable event (http.hpp caps a request or a frame).
constexpr std::size_t kReadChunk = 16 << 10;

std::string_view after_prefix(std::string_view path, std::string_view prefix) {
  return path.substr(prefix.size());
}

/// Body -> Value for PUT/INCR: an integer if the whole body parses as one,
/// the raw string otherwise.
Value body_value(const std::string& body) {
  if (!body.empty()) {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(body.c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0' && end != body.c_str()) {
      return Value(static_cast<std::int64_t>(parsed));
    }
  }
  return Value(body);
}

constexpr const char* kFallbackConsole =
    "<!doctype html><title>rcs gateway</title>"
    "<p>Operations console file not found. Point gateway_runner at "
    "<code>tools/console/index.html</code> with <code>--console</code>, or "
    "use the JSON endpoints: <a href=\"/healthz\">/healthz</a>, "
    "<a href=\"/groups\">/groups</a>, <a href=\"/status\">/status</a>, "
    "<a href=\"/metrics\">/metrics</a>.</p>";

}  // namespace

struct GatewayServer::Conn {
  int fd{-1};
  bool websocket{false};
  /// Parse nothing more; close once `out` is sent and no ticket is left.
  bool closing{false};
  bool dead{false};
  std::string in{};
  std::string out{};
  /// The bridged request this connection waits on (0 = none).
  std::uint64_t ticket{0};
  bool adapt{false};
  Clock::time_point ticket_deadline{};
  Clock::time_point last_active{};

  void receive(Clock::time_point now) {
    char chunk[kReadChunk];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in.append(chunk, static_cast<std::size_t>(n));
      last_active = now;
    } else if (n == 0 ||
               (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      dead = true;  // peer closed, or a socket error
    }
  }

  void flush(Clock::time_point now) {
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        dead = errno != EAGAIN && errno != EWOULDBLOCK;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    out.erase(0, sent);
    if (sent > 0) last_active = now;
  }

  /// One client frame from `in`; false when none is complete. Answers
  /// pings, honors close, ignores payloads (the console drives the system
  /// through the HTTP verbs, not the socket).
  bool serve_frame() {
    WsFrame frame;
    std::size_t consumed = 0;
    const ParseStatus status = parse_ws_frame(in, frame, consumed);
    if (status == ParseStatus::kBad) dead = true;
    if (status != ParseStatus::kOk) return false;
    in.erase(0, consumed);
    if (frame.opcode == 0x8) {
      out += ws_close_frame();
      closing = true;
    } else if (frame.opcode == 0x9) {
      out += ws_pong_frame(frame.payload);
    }
    return true;
  }

  /// Wait on `id`; a 503 when the command queue refused the command.
  std::string park(std::uint64_t id, bool is_adapt, Clock::time_point now) {
    if (id == 0) {
      return http_response(503, "application/json",
                           "{\"error\":\"command queue full\"}\n");
    }
    ticket = id;
    adapt = is_adapt;
    ticket_deadline = now + (is_adapt ? 2 : 1) * kRequestTimeout;
    return {};
  }
};

GatewayServer::GatewayServer(SimBridge& bridge, ServerOptions options)
    : bridge_(bridge), options_(std::move(options)) {}

GatewayServer::~GatewayServer() { stop(); }

bool GatewayServer::start(std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) return fail("eventfd");
  {
    std::lock_guard<std::mutex> lock(outbox_mutex_);
    wake_fd_ = wake_fd;
  }
  running_.store(true, std::memory_order_release);
  bridge_.completions().set_notify([this] { wake(); });
  thread_ = std::thread([this] { loop(); });
  return true;
}

void GatewayServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  bridge_.completions().set_notify(nullptr);
  wake();
  thread_.join();
  for (Conn& conn : conns_) conn.dead = true;
  reap();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(outbox_mutex_);
  ::close(wake_fd_);
  wake_fd_ = -1;
  outbox_.clear();
}

void GatewayServer::wake() {
  std::lock_guard<std::mutex> lock(outbox_mutex_);
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // Only fails when the counter would overflow, and then the loop is awake.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void GatewayServer::publish(const std::string& frame) {
  if (ws_subscribers() == 0) return;
  std::string encoded = ws_text_frame(frame);
  {
    std::lock_guard<std::mutex> lock(outbox_mutex_);
    if (wake_fd_ < 0) return;
    if (outbox_.size() == kMaxPendingFrames) outbox_.pop_front();
    outbox_.push_back(std::move(encoded));
  }
  wake();
}

void GatewayServer::loop() {
  std::vector<pollfd> fds;
  std::deque<std::string> frames;
  while (running_.load(std::memory_order_acquire)) {
    Clock::time_point now = Clock::now();
    fds.clear();
    fds.push_back({now >= accept_paused_until_ ? listen_fd_ : -1, POLLIN, 0});
    fds.push_back({wake_fd_, POLLIN, 0});
    for (const Conn& conn : conns_) {
      // An HTTP connection reads nothing while a reply is pending: the
      // client's backlog then waits in its own socket buffer.
      const bool idle_http = conn.ticket == 0 && conn.out.empty();
      const bool read = !conn.closing && (conn.websocket || idle_http);
      const int events = (read ? POLLIN : 0) | (conn.out.empty() ? 0 : POLLOUT);
      fds.push_back({conn.fd, static_cast<short>(events), 0});
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(kTick.count()));
    if (!running_.load(std::memory_order_acquire)) break;
    now = Clock::now();

    if (fds[1].revents != 0) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(wake_fd_, &count, sizeof(count));
      {
        std::lock_guard<std::mutex> lock(outbox_mutex_);
        frames.swap(outbox_);
      }
      for (Conn& conn : conns_) {
        if (!conn.websocket || conn.closing || frames.empty()) continue;
        for (const std::string& frame : frames) conn.out += frame;
        if (conn.out.size() > kMaxOutBuffer) conn.dead = true;  // lagging
      }
      frames.clear();
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      const short revents = fds[i + 2].revents;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        conn.dead = true;
      } else if ((revents & POLLIN) != 0) {
        conn.receive(now);
      }
      if (!conn.dead && conn.ticket != 0) resolve(conn, now);
      if (!conn.dead) pump(conn, now);
      // A WebSocket subscriber only listens, so it is exempt until closing.
      if ((!conn.websocket || conn.closing) && conn.ticket == 0 &&
          now - conn.last_active > kIdleTimeout) {
        conn.dead = true;
      }
    }
    reap();
    // After the reaping, so a slot freed in this pass is free for a newcomer.
    if ((fds[0].revents & POLLIN) != 0) accept_all(now);
  }
}

void GatewayServer::reap() {
  for (const Conn& conn : conns_) {
    if (!conn.dead) continue;
    if (conn.ticket != 0) bridge_.completions().abandon(conn.ticket);
    if (conn.websocket) ws_count_.fetch_sub(1, std::memory_order_relaxed);
    ::close(conn.fd);
  }
  std::erase_if(conns_, [](const Conn& conn) { return conn.dead; });
}

void GatewayServer::accept_all(Clock::time_point now) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of fds, say: leave the backlog for a tick instead of spinning
      // on a listener that stays readable.
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
          errno != ECONNABORTED) {
        accept_paused_until_ = now + kTick;
      }
      return;
    }
    if (conns_.size() >= kMaxConnections) {
      const std::string busy =
          http_response(503, "application/json",
                        "{\"error\":\"too many connections\"}\n",
                        "Connection: close\r\n");
      [[maybe_unused]] const ssize_t n =
          ::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.push_back(Conn{.fd = fd, .last_active = now});
  }
}

void GatewayServer::pump(Conn& conn, Clock::time_point now) {
  while (!conn.dead && !conn.closing && conn.ticket == 0 &&
         conn.out.size() < kMaxOutBuffer &&
         (conn.websocket ? conn.serve_frame() : serve_request(conn, now))) {
  }
  if (!conn.dead) conn.flush(now);
  if (conn.closing && conn.ticket == 0 && conn.out.empty()) conn.dead = true;
}

bool GatewayServer::serve_request(Conn& conn, Clock::time_point now) {
  HttpRequest request;
  std::size_t consumed = 0;
  const ParseStatus status = parse_http_request(conn.in, request, consumed);
  if (status == ParseStatus::kIncomplete) return false;
  if (status == ParseStatus::kBad) {
    conn.out += http_response(400, "text/plain", "bad request\n");
    conn.closing = true;
    return false;
  }
  conn.in.erase(0, consumed);
  const std::string response = route(request, conn, now);
  if (!response.empty()) {
    conn.out += response;
    served_.fetch_add(1, std::memory_order_relaxed);
  }
  std::string connection(request.header("connection"));
  std::transform(connection.begin(), connection.end(), connection.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (connection == "close") conn.closing = true;
  return true;
}

void GatewayServer::resolve(Conn& conn, Clock::time_point now) {
  CompletionBoard& board = bridge_.completions();
  const std::optional<Value> reply = board.take(conn.ticket);
  if (!reply && !board.closed() && now < conn.ticket_deadline) return;
  served_.fetch_add(1, std::memory_order_relaxed);
  conn.last_active = now;
  const bool adapt = conn.adapt;
  if (!reply) {  // timed out, or the bridge stopped first
    board.abandon(conn.ticket);
    conn.out += http_response(504, "application/json",
                              adapt ? "{\"error\":\"transition timeout\"}\n"
                                    : "{\"error\":\"gateway timeout\"}\n");
  } else if (reply->is_map() && reply->has("error")) {
    const bool timeout = reply->at("error").is_string() &&
                         reply->at("error").as_string() == "timeout";
    conn.out += http_response(adapt ? 409 : timeout ? 504 : 502,
                              "application/json", json_of(*reply) + "\n");
  } else {
    const bool result = !adapt && reply->is_map() && reply->has("result");
    conn.out += http_response(
        200, "application/json",
        json_of(result ? reply->at("result") : *reply) + "\n");
  }
  conn.ticket = 0;
}

std::string GatewayServer::console_page() const {
  if (!options_.console_path.empty()) {
    std::ifstream file(options_.console_path, std::ios::binary);
    if (file) {
      std::ostringstream contents;
      contents << file.rdbuf();
      return http_response(200, "text/html; charset=utf-8", contents.str());
    }
  }
  return http_response(200, "text/html; charset=utf-8", kFallbackConsole);
}

std::string GatewayServer::route(const HttpRequest& request, Conn& conn,
                                 Clock::time_point now) {
  const std::string& path = request.path;
  const bool is_get = request.method == "GET" || request.method == "HEAD";

  // WebSocket upgrade: the connection leaves HTTP for good.
  if (path == "/ws") {
    const auto key = request.header("sec-websocket-key");
    if (key.empty()) {
      return http_response(400, "text/plain", "missing websocket key\n");
    }
    conn.websocket = true;
    ws_count_.fetch_add(1, std::memory_order_relaxed);
    // Greet the subscriber with the latest state so dashboards render
    // immediately instead of waiting for the next snapshot tick.
    const std::string latest = bridge_.latest_status();
    return ws_handshake_response(key) +
           (latest.empty() ? std::string() : ws_text_frame(latest));
  }

  if (path == "/healthz") {
    if (!is_get) return http_response(405, "text/plain", "GET only\n");
    std::string body = "{\"status\":\"ok\",\"sim_now_us\":";
    body += std::to_string(bridge_.sim_now_us());
    body += ",\"ws_subscribers\":";
    body += std::to_string(ws_subscribers());
    body += ",\"connections_open\":";
    body += std::to_string(conns_.size());
    body += ",\"requests_served\":";
    body += std::to_string(requests_served());
    body += "}\n";
    return http_response(200, "application/json", body);
  }
  if (path == "/groups") {
    if (!is_get) return http_response(405, "text/plain", "GET only\n");
    std::string body = bridge_.groups_json();
    if (body.empty()) body = "{\"groups\":[]}";
    return http_response(200, "application/json", body + "\n");
  }
  if (path == "/status") {
    if (!is_get) return http_response(405, "text/plain", "GET only\n");
    std::string body = bridge_.latest_status();
    if (body.empty()) body = "{\"type\":\"status\",\"warming_up\":true}";
    return http_response(200, "application/json", body + "\n");
  }
  if (path == "/metrics") {
    if (!is_get) return http_response(405, "text/plain", "GET only\n");
    return http_response(200, "application/jsonlines", bridge_.latest_metrics());
  }
  if (path.rfind("/kv/", 0) == 0) {
    std::string key(after_prefix(path, "/kv/"));
    const bool incr = key.size() > 5 && key.rfind("/incr") == key.size() - 5;
    if (incr) key.resize(key.size() - 5);
    if (key.empty()) return http_response(400, "text/plain", "missing key\n");
    Value op = Value::map().set("key", key);
    if (incr) {
      if (request.method != "POST") {
        return http_response(405, "text/plain", "POST only\n");
      }
      op.set("op", "incr");
      const Value by = body_value(request.body);
      if (by.is_int()) op.set("by", by);
    } else if (is_get) {
      op.set("op", "get");
    } else if (request.method == "POST" || request.method == "PUT") {
      op.set("op", "put").set("value", body_value(request.body));
    } else {
      return http_response(405, "text/plain", "GET/POST/PUT only\n");
    }
    return conn.park(bridge_.submit_request(std::move(op)), false, now);
  }
  if (path.rfind("/adapt/", 0) == 0) {
    if (request.method != "POST") {
      return http_response(405, "text/plain", "POST only\n");
    }
    const std::string target(after_prefix(path, "/adapt/"));
    if (target.empty()) return http_response(400, "text/plain", "missing FTM\n");
    return conn.park(bridge_.submit_adapt(target), true, now);
  }
  if (path == "/" || path == "/console" || path == "/index.html") {
    if (!is_get) return http_response(405, "text/plain", "GET only\n");
    return console_page();
  }
  return http_response(404, "application/json", "{\"error\":\"not found\"}\n");
}

}  // namespace rcs::gateway
