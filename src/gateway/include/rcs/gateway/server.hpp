// GatewayServer: the real-socket edge.
//
// One thread runs a poll loop over non-blocking sockets: the listener, a
// wake fd and every connection, so an idle client costs a connection slot,
// never a thread. The loop speaks the minimal HTTP/1.1 of http.hpp. An
// application request is bridged onto the simulation through the
// SimBridge's command queue (the deterministic core never sees the socket);
// its connection then parses nothing further until the ticket's completion
// arrives, which keeps pipelined replies in order. The sim thread wakes the
// loop through the wake fd both when it posts a completion and when
// publish() hands over a status/metrics frame for the WebSocket
// subscribers. Every queue is bounded by a constant in server.cpp: a
// subscriber that falls too far behind is dropped, so a slow dashboard
// stalls neither the simulation nor its peers, and connections past
// kMaxConnections are answered 503.
//
// Routes:
//   GET  /healthz        liveness + sim clock (no sim round-trip)
//   GET  /groups         replica-group roster with active FTM per group
//   GET  /status         latest status frame (same JSON the WS stream sends)
//   GET  /metrics        latest obs::snapshot_json export (JSON lines)
//   GET  /kv/{key}       app request {"op":"get"} through the FTM group
//   POST /kv/{key}       {"op":"put"}; body = value (integer or string)
//   POST /kv/{key}/incr  {"op":"incr"}; optional body = increment
//   POST /adapt/{ftm}    differential transition to the named FTM
//   GET  /ws             WebSocket upgrade to the live stream
//   GET  /               operations console (file from options.console_path)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rcs/gateway/bridge.hpp"
#include "rcs/gateway/http.hpp"

namespace rcs::gateway {

struct ServerOptions {
  std::string bind{"127.0.0.1"};
  /// 0 binds an ephemeral port; read the actual one from port().
  int port{8080};
  /// File served at "/" (the committed console); empty or unreadable falls
  /// back to a built-in placeholder page.
  std::string console_path;
};

class GatewayServer {
 public:
  static constexpr std::size_t kMaxConnections = 256;

  GatewayServer(SimBridge& bridge, ServerOptions options);
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Bind + listen + start the loop thread. False (with `error` set) if the
  /// socket could not be bound.
  bool start(std::string* error = nullptr);
  /// Stop and join the loop, close every connection. Idempotent.
  void stop();

  [[nodiscard]] int port() const { return port_; }

  /// Hand a text frame to the loop for every WebSocket subscriber (any
  /// thread; the bridge calls it from the sim thread).
  void publish(const std::string& frame);
  [[nodiscard]] std::size_t ws_subscribers() const {
    return ws_count_.load(std::memory_order_relaxed);
  }

  /// Responses written (diagnostics).
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;
  /// One connection's buffers and state (server.cpp).
  struct Conn;

  void loop();
  /// Close and forget the connections marked dead.
  void reap();
  void accept_all(Clock::time_point now);
  /// Serve what `conn` has read as far as its state allows, then send.
  void pump(Conn& conn, Clock::time_point now);
  /// One request from `conn`'s input; false when none is complete.
  bool serve_request(Conn& conn, Clock::time_point now);
  /// Write the response of `conn`'s ticket once it completed, timed out,
  /// or the board closed.
  void resolve(Conn& conn, Clock::time_point now);
  void wake();
  /// The response to `request`, or empty when it was bridged: `conn` then
  /// waits on its ticket.
  std::string route(const HttpRequest& request, Conn& conn,
                    Clock::time_point now);
  std::string console_page() const;

  SimBridge& bridge_;
  ServerOptions options_;
  int listen_fd_{-1};
  int port_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::size_t> ws_count_{0};

  /// Loop thread only.
  std::vector<Conn> conns_;
  Clock::time_point accept_paused_until_{};

  /// Frames from publish() not yet taken by the loop, and the eventfd that
  /// wakes it; stop() closes the fd under the same lock.
  std::mutex outbox_mutex_;
  std::deque<std::string> outbox_;
  int wake_fd_{-1};

  std::thread thread_;
};

}  // namespace rcs::gateway
