// Byte buffers and a small binary codec.
//
// Checkpoints, messages and deployable component packages are serialized to
// Bytes so the simulated network can account for their size (bandwidth is one
// of the paper's R parameters). Encoding is little-endian with varint lengths.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcs {

using Bytes = std::vector<std::uint8_t>;

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

/// FNV-1a digest, used for package integrity checks in the repository.
[[nodiscard]] std::uint64_t fnv1a(const Bytes& data);

/// Streaming FNV-1a: adding a buffer's bytes in any number of pieces gives
/// fnv1a() of the whole buffer.
class Fnv1a {
 public:
  void add(std::uint8_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ULL; }
  void add(const std::uint8_t* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) add(data[i]);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

}  // namespace rcs
