// End-to-end over a real loopback socket: the shape the CI smoke job curls,
// exercised in-process. A ResilientSystem runs PBR over two replicas, the
// bridge paces it unthrottled on a background thread, the server listens on
// an ephemeral port — and a plain TCP client performs the health check, a KV
// round-trip served by the replicated FTM group, and a WebSocket upgrade
// that receives a status frame. The server's bounds are pinned here too:
// idle clients cannot starve it, pipelined replies keep their order, and
// the connection cap answers 503. Also the second half of the TSan surface:
// real sockets, the server loop, the sim thread, all at once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rcs/ftm/config.hpp"
#include "rcs/gateway/bridge.hpp"
#include "rcs/gateway/server.hpp"

namespace rcs::gateway {
namespace {

/// Blocking loopback TCP client, just enough for the tests.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send_all(const std::string& data) const {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// One HTTP response: headers + Content-Length body.
  std::string read_response() {
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return {};
    }
    const std::size_t header_end = buffer_.find("\r\n\r\n") + 4;
    std::size_t body_len = 0;
    const auto cl = buffer_.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      body_len = static_cast<std::size_t>(
          std::strtoul(buffer_.c_str() + cl + 16, nullptr, 10));
    }
    while (buffer_.size() < header_end + body_len) {
      if (!fill()) return {};
    }
    std::string response = buffer_.substr(0, header_end + body_len);
    buffer_.erase(0, header_end + body_len);
    return response;
  }

  /// Read until the handshake's blank line only (no Content-Length on 101s).
  std::string read_headers() {
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return {};
    }
    const std::size_t end = buffer_.find("\r\n\r\n") + 4;
    std::string headers = buffer_.substr(0, end);
    buffer_.erase(0, end);
    return headers;
  }

  /// One server WebSocket frame (unmasked text, possibly 126-length).
  std::string read_ws_frame() {
    while (true) {
      if (buffer_.size() >= 2) {
        const auto b1 = static_cast<unsigned char>(buffer_[1]);
        std::size_t header = 2, len = b1 & 0x7f;
        if (len == 126 && buffer_.size() >= 4) {
          len = (static_cast<unsigned char>(buffer_[2]) << 8) |
                static_cast<unsigned char>(buffer_[3]);
          header = 4;
        } else if (len == 127 && buffer_.size() >= 10) {
          len = 0;
          for (int i = 2; i < 10; ++i) {
            len = (len << 8) | static_cast<unsigned char>(buffer_[i]);
          }
          header = 10;
        }
        if ((len < 126 || header > 2) && buffer_.size() >= header + len) {
          std::string payload = buffer_.substr(header, len);
          buffer_.erase(0, header + len);
          return payload;
        }
      }
      if (!fill()) return {};
    }
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_{-1};
  bool connected_{false};
  std::string buffer_;
};

constexpr const char* kUpgrade =
    "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\n"
    "Connection: Upgrade\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
    "Sec-WebSocket-Version: 13\r\n\r\n";

class GatewayE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<core::ResilientSystem>(core::SystemOptions{});
    system_->deploy_and_wait(ftm::FtmConfig::pbr());
    bridge_ = std::make_unique<SimBridge>(*system_,
                                          BridgeOptions{.speed = 0.0});
    ServerOptions options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<GatewayServer>(*bridge_, options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    bridge_->set_publisher(
        [this](const std::string& frame) { server_->publish(frame); });
    sim_thread_ = std::thread([this] { bridge_->run(); });
  }

  void TearDown() override {
    bridge_->request_stop();
    if (sim_thread_.joinable()) sim_thread_.join();
    server_->stop();
  }

  std::unique_ptr<core::ResilientSystem> system_;
  std::unique_ptr<SimBridge> bridge_;
  std::unique_ptr<GatewayServer> server_;
  std::thread sim_thread_;
};

TEST_F(GatewayE2E, HealthzAnswersOverRealSocket) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.find("sim_now_us"), std::string::npos);
  EXPECT_NE(response.find("\"connections_open\":1,"), std::string::npos)
      << response;
}

TEST_F(GatewayE2E, KvRoundTripThroughTheFtmGroup) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // put over the same keep-alive connection, then get it back.
  client.send_all(
      "POST /kv/e2e HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\n\r\npayload");
  const std::string put = client.read_response();
  EXPECT_NE(put.find("200 OK"), std::string::npos) << put;
  EXPECT_NE(put.find("\"ok\":true"), std::string::npos) << put;

  client.send_all("GET /kv/e2e HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string get = client.read_response();
  EXPECT_NE(get.find("200 OK"), std::string::npos) << get;
  EXPECT_NE(get.find("\"value\":\"payload\""), std::string::npos) << get;
}

TEST_F(GatewayE2E, MissingKeyAndUnknownRouteShapes) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all("GET /kv/never-written HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string get = client.read_response();
  EXPECT_NE(get.find("\"found\":false"), std::string::npos) << get;

  client.send_all("GET /no-such-route HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(client.read_response().find("404"), std::string::npos);
}

TEST_F(GatewayE2E, WebSocketUpgradeStreamsStatusFrames) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all(kUpgrade);
  const std::string handshake = client.read_headers();
  EXPECT_NE(handshake.find("101 Switching Protocols"), std::string::npos);
  EXPECT_NE(handshake.find("s3pPLMBiTxaQ9kYGzzhZRbK+xOo="), std::string::npos);

  // Frames keep flowing (greeting + periodic snapshots); find a status one.
  bool saw_status = false;
  for (int i = 0; i < 10 && !saw_status; ++i) {
    const std::string frame = client.read_ws_frame();
    ASSERT_FALSE(frame.empty());
    saw_status = frame.find("\"type\":\"status\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_status);
}

TEST_F(GatewayE2E, GroupsReportTheActiveFtm) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // /groups serves the snapshot cache; wait for the first publish.
  std::string body;
  for (int i = 0; i < 200; ++i) {
    TestClient probe(server_->port());
    ASSERT_TRUE(probe.connected());
    probe.send_all("GET /groups HTTP/1.1\r\nHost: t\r\n\r\n");
    body = probe.read_response();
    if (body.find("\"ftm\":\"PBR\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(body.find("\"ftm\":\"PBR\""), std::string::npos) << body;
  EXPECT_NE(body.find("replica0"), std::string::npos);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST_F(GatewayE2E, IdleClientsDoNotStarveOtherRequests) {
  // Subscribers that never read, and clients that connect and never send.
  std::vector<std::unique_ptr<TestClient>> idle;
  for (int i = 0; i < 2; ++i) {
    idle.push_back(std::make_unique<TestClient>(server_->port()));
    idle.back()->send_all(kUpgrade);
    ASSERT_NE(idle.back()->read_headers().find("101"), std::string::npos);
  }
  for (int i = 0; i < 8; ++i) {
    idle.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(idle.back()->connected());
  }

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  auto start = std::chrono::steady_clock::now();
  client.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string health = client.read_response();
  EXPECT_LT(seconds_since(start), 1.0);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

  start = std::chrono::steady_clock::now();
  client.send_all(
      "POST /kv/idle HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n41");
  const std::string put = client.read_response();
  client.send_all("GET /kv/idle HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string get = client.read_response();
  EXPECT_LT(seconds_since(start), 1.0);
  EXPECT_NE(put.find("\"ok\":true"), std::string::npos) << put;
  EXPECT_NE(get.find("\"value\":41"), std::string::npos) << get;
}

TEST_F(GatewayE2E, PipelinedRequestsAreAnsweredInOrder) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // The bridged put completes after the immediate /healthz would have: its
  // reply must still come first.
  client.send_all(
      "POST /kv/pipe HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\n7"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string first = client.read_response();
  const std::string second = client.read_response();
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(second.find("\"status\":\"ok\""), std::string::npos) << second;
}

TEST_F(GatewayE2E, ConnectionsPastTheCapAreAnswered503) {
  std::vector<std::unique_ptr<TestClient>> held;
  for (std::size_t i = 0; i < GatewayServer::kMaxConnections; ++i) {
    held.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(held.back()->connected());
  }
  {
    // Accepted after every held one, so it finds the table full. It sends
    // nothing: the refusal arrives unasked.
    TestClient refused(server_->port());
    ASSERT_TRUE(refused.connected());
    const std::string response = refused.read_response();
    EXPECT_NE(response.find("503"), std::string::npos) << response;
  }
  // Leaving clients free their slots.
  held.clear();
  std::string health;
  for (int i = 0; i < 100; ++i) {
    TestClient client(server_->port());
    ASSERT_TRUE(client.connected());
    client.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    health = client.read_response();
    if (health.find("200 OK") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
}

}  // namespace
}  // namespace rcs::gateway
