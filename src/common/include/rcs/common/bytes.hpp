// Byte buffers and a small binary codec.
//
// Checkpoints, messages and deployable component packages are serialized to
// Bytes so the simulated network can account for their size (bandwidth is one
// of the paper's R parameters). Encoding is little-endian with varint lengths.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rcs {

using Bytes = std::vector<std::uint8_t>;

/// Number of bytes ByteWriter::write_varint(v) appends.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends primitive values to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buffer_(std::move(initial)) {}

  /// Pre-size the buffer for `n` more bytes (single allocation for encodes
  /// whose size is known up front, e.g. Value::encode).
  void reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_varint(std::uint64_t v);
  void write_string(std::string_view s);
  void write_bytes(const Bytes& b);

  [[nodiscard]] const Bytes& buffer() const { return buffer_; }
  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Reads primitive values back; throws ValueError on truncation.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buffer) : buffer_(buffer) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::uint64_t read_varint();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] Bytes read_bytes();

  [[nodiscard]] bool at_end() const { return pos_ == buffer_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buffer_.size() - pos_; }

 private:
  void require(std::size_t n) const;

  const Bytes& buffer_;
  std::size_t pos_{0};
};

/// Streaming 64-bit hash, the one digest behind package checksums and
/// Value::digest. It reads the input as 8-byte little-endian words, so the
/// result does not depend on the host's byte order. Word i of each 32-byte
/// block feeds lane i; a lane step is `(lane ^ word) * odd` then an
/// xorshift. The final mix steps the 0-3 whole words after the last block
/// into their lanes, then folds the lanes, the last 0-7 bytes (zero-padded
/// to one word) and the length, each times its own odd constant, into one
/// sum, and avalanches it. Every step is a bijection in the word it consumes
/// and in the state it carries, and the sum is one in each of its terms, so
/// two inputs of equal length that differ only inside one aligned 8-byte
/// word always hash differently. Adding a buffer in any number of pieces
/// gives hash64() of the whole buffer. Not a cryptographic hash: it detects
/// corruption, not tampering.
class Hash64 {
 public:
  void add(const std::uint8_t* data, std::size_t n) {
    const std::size_t fill = length_ % kBlock;
    if (fill + n < kBlock) {
      if (n != 0) std::memcpy(buffer_ + fill, data, n);
      length_ += n;
      return;
    }
    add_spanning(data, n);
  }
  void add(std::uint8_t byte) { add(&byte, 1); }
  [[nodiscard]] std::uint64_t value() const;

 private:
  static constexpr std::size_t kBlock = 32;

  /// The slow path of add(): completes the buffered block, then hashes whole
  /// blocks straight from `data` and buffers the rest.
  void add_spanning(const std::uint8_t* data, std::size_t n);
  void consume_blocks(const std::uint8_t* data, std::size_t blocks);

  std::uint64_t lanes_[4]{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                          0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  std::uint8_t buffer_[kBlock]{};  // the first length_ % kBlock bytes count
  std::uint64_t length_{0};
};

/// One-shot Hash64: the checksum of a package artifact, and of
/// Value::encode() output (which Value::digest computes without encoding).
[[nodiscard]] std::uint64_t hash64(const std::uint8_t* data, std::size_t n);
[[nodiscard]] inline std::uint64_t hash64(const Bytes& data) {
  return hash64(data.data(), data.size());
}

// Kept because e2e_bench/src/layers.cpp (common.fnv1a_ns) calls it.
[[nodiscard]] inline std::uint64_t fnv1a(const Bytes& d) { return hash64(d); }

}  // namespace rcs
