// Seeded mutation fuzzing of the gateway's byte parsers: the HTTP/1.1
// request parser and the RFC 6455 client-frame parser both read raw socket
// bytes from whoever connects. Valid requests and frames are mutated (bit
// flips, byte overwrites, truncations, splices of two messages, huge
// Content-Length values and 127-form frame lengths) and fed to the parsers.
// For every input:
//  - parsing never throws (and, under the sanitizer builds, never reads out
//    of bounds);
//  - kOk never reports more consumed bytes than the buffer holds;
//  - every strict prefix of a valid message is kIncomplete, never kOk or
//    kBad, so a message split across reads always waits for its tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rcs/common/rng.hpp"
#include "rcs/gateway/http.hpp"

namespace rcs::gateway {
namespace {

const std::vector<std::string>& http_corpus() {
  static const std::vector<std::string> corpus{
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
      "POST /kv/ci-key HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n"
      "ci-value",
      "GET /kv/a%20b?verbose=1 HTTP/1.1\r\nAccept: */*\r\n\r\n",
      "POST /adapt/LFR HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
      "GET /ws HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"
      "Connection: Upgrade\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
      "Sec-WebSocket-Version: 13\r\n\r\n",
      "PUT /kv/k HTTP/1.1\r\ncontent-length:   3  \r\nX-Empty:\r\n\r\nabc",
  };
  return corpus;
}

/// A masked client frame; `wide` forces the 64-bit (127) length form.
std::string client_frame(int opcode, const std::string& payload,
                         std::uint32_t mask, bool wide = false) {
  std::string frame;
  frame.push_back(static_cast<char>(0x80 | opcode));
  const std::uint64_t n = payload.size();
  if (wide) {
    frame.push_back(static_cast<char>(0x80 | 127));
    for (int i = 7; i >= 0; --i) {
      frame.push_back(static_cast<char>((n >> (8 * i)) & 0xFF));
    }
  } else if (n < 126) {
    frame.push_back(static_cast<char>(0x80 | n));
  } else {
    frame.push_back(static_cast<char>(0x80 | 126));
    frame.push_back(static_cast<char>((n >> 8) & 0xFF));
    frame.push_back(static_cast<char>(n & 0xFF));
  }
  const unsigned char key[4] = {
      static_cast<unsigned char>(mask >> 24),
      static_cast<unsigned char>(mask >> 16),
      static_cast<unsigned char>(mask >> 8), static_cast<unsigned char>(mask)};
  frame.append(reinterpret_cast<const char*>(key), 4);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    frame.push_back(static_cast<char>(payload[i] ^ key[i % 4]));
  }
  return frame;
}

const std::vector<std::string>& ws_corpus() {
  static const std::vector<std::string> corpus{
      client_frame(0x1, "", 0x01020304u),
      client_frame(0x1, "hello", 0xA1B2C3D4u),
      client_frame(0x9, "ping!", 0x00000000u),
      client_frame(0x8, std::string("\x03\xe8", 2), 0xDEADBEEFu),
      client_frame(0x1, std::string(125, 'x'), 0x11223344u),
      client_frame(0x2, std::string(300, '\x7f'), 0x55667788u),
      client_frame(0x1, "wide", 0x99AABBCCu, /*wide=*/true),
  };
  return corpus;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One random mutation of `input`, drawing splice material from `corpus`.
std::string mutate(Rng& rng, std::string input,
                   const std::vector<std::string>& corpus) {
  const int rounds = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // flip one bit
        if (!input.empty()) {
          input[pick(rng, input.size())] ^=
              static_cast<char>(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // overwrite one byte
        if (!input.empty()) {
          input[pick(rng, input.size())] =
              static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      case 2:  // truncate
        input.resize(pick(rng, input.size() + 1));
        break;
      case 3: {  // splice: our prefix + another message's suffix
        const std::string& other = corpus[pick(rng, corpus.size())];
        input = input.substr(0, pick(rng, input.size() + 1)) +
                other.substr(pick(rng, other.size() + 1));
        break;
      }
      default:  // insert a random byte
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, input.size() + 1)),
                     static_cast<char>(rng.uniform_int(0, 255)));
        break;
    }
  }
  return input;
}

void expect_http_sane(const std::string& input) {
  HttpRequest request;
  std::size_t consumed = 0;
  ParseStatus status = ParseStatus::kBad;
  ASSERT_NO_THROW(status = parse_http_request(input, request, consumed))
      << testing::PrintToString(input);
  if (status == ParseStatus::kOk) {
    ASSERT_LE(consumed, input.size()) << testing::PrintToString(input);
  }
}

void expect_ws_sane(const std::string& input) {
  WsFrame frame;
  std::size_t consumed = 0;
  ParseStatus status = ParseStatus::kBad;
  ASSERT_NO_THROW(status = parse_ws_frame(input, frame, consumed))
      << testing::PrintToString(input);
  if (status == ParseStatus::kOk) {
    ASSERT_LE(consumed, input.size()) << testing::PrintToString(input);
  }
}

TEST(GatewayParserFuzz, EveryStrictPrefixOfAValidRequestIsIncomplete) {
  for (const std::string& valid : http_corpus()) {
    HttpRequest request;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_http_request(valid, request, consumed), ParseStatus::kOk)
        << valid;
    ASSERT_EQ(consumed, valid.size()) << valid;
    for (std::size_t n = 0; n < valid.size(); ++n) {
      ASSERT_EQ(parse_http_request(valid.substr(0, n), request, consumed),
                ParseStatus::kIncomplete)
          << "prefix " << n << " of " << testing::PrintToString(valid);
    }
  }
}

TEST(GatewayParserFuzz, EveryStrictPrefixOfAValidFrameIsIncomplete) {
  for (const std::string& valid : ws_corpus()) {
    WsFrame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_ws_frame(valid, frame, consumed), ParseStatus::kOk);
    ASSERT_EQ(consumed, valid.size());
    for (std::size_t n = 0; n < valid.size(); ++n) {
      ASSERT_EQ(parse_ws_frame(valid.substr(0, n), frame, consumed),
                ParseStatus::kIncomplete)
          << "prefix " << n << " of a " << valid.size() << "-byte frame";
    }
  }
}

TEST(GatewayParserFuzz, HugeContentLengthIsRejectedNotAwaited) {
  // A length the parser would never see the end of must close the
  // connection instead of buffering forever.
  for (const char* length :
       {"1048577", "4294967296", "18446744073709551615",
        "99999999999999999999999999", "-1"}) {
    const std::string raw = std::string("POST /kv/k HTTP/1.1\r\n") +
                            "Content-Length: " + length + "\r\n\r\nabc";
    HttpRequest request;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_http_request(raw, request, consumed), ParseStatus::kBad)
        << length;
  }
}

TEST(GatewayParserFuzz, HugeWideFrameLengthIsRejectedNotAwaited) {
  for (const std::uint64_t length :
       {(std::uint64_t{1} << 20) + 1, std::uint64_t{1} << 32,
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    std::string frame("\x81\xff", 2);
    for (int i = 7; i >= 0; --i) {
      frame.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
    }
    frame += "MASKpayload";
    WsFrame parsed;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_ws_frame(frame, parsed, consumed), ParseStatus::kBad)
        << length;
  }
}

class GatewayParserFuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(GatewayParserFuzzSeeds, MutatedRequestsNeverCrashOrOverconsume) {
  Rng rng(0x477E + static_cast<std::uint64_t>(GetParam()));
  const auto& corpus = http_corpus();
  for (int i = 0; i < 2000; ++i) {
    std::string input = mutate(rng, corpus[pick(rng, corpus.size())], corpus);
    if (rng.bernoulli(0.1)) {
      // Splice a hostile Content-Length into the header block.
      const std::size_t at = input.find("\r\n");
      if (at != std::string::npos) {
        input.insert(at + 2, rng.bernoulli(0.5)
                                 ? "Content-Length: 18446744073709551616\r\n"
                                 : "Content-Length: 1048576\r\n");
      }
    }
    expect_http_sane(input);
    if (HasFatalFailure()) return;
  }
}

TEST_P(GatewayParserFuzzSeeds, MutatedFramesNeverCrashOrOverconsume) {
  Rng rng(0x5EB5 + static_cast<std::uint64_t>(GetParam()));
  const auto& corpus = ws_corpus();
  for (int i = 0; i < 2000; ++i) {
    std::string input = mutate(rng, corpus[pick(rng, corpus.size())], corpus);
    if (rng.bernoulli(0.1) && input.size() >= 2) {
      // Force the 127 form with random length bytes.
      input[1] = static_cast<char>(0x80 | 127);
      std::string length(8, '\0');
      for (char& c : length) c = static_cast<char>(rng.uniform_int(0, 255));
      input.insert(2, length);
    }
    expect_ws_sane(input);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatewayParserFuzzSeeds, ::testing::Range(0, 5));

}  // namespace
}  // namespace rcs::gateway
