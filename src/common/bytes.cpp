#include "rcs/common/bytes.hpp"

#include <bit>
#include <cstring>

#include "rcs/common/error.hpp"

namespace rcs {

void ByteWriter::write_u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_string(std::string_view s) {
  write_varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::write_bytes(const Bytes& b) {
  write_varint(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void ByteReader::require(std::size_t n) const {
  if (buffer_.size() - pos_ < n) {
    throw ValueError("ByteReader: truncated buffer");
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return buffer_[pos_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buffer_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buffer_[pos_++]) << (8 * i);
  return v;
}

std::int64_t ByteReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    require(1);
    const std::uint8_t byte = buffer_[pos_++];
    if (shift >= 64) throw ValueError("ByteReader: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string ByteReader::read_string() {
  const auto n = read_varint();
  require(n);
  std::string s(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes ByteReader::read_bytes() {
  const auto n = read_varint();
  require(n);
  Bytes b(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
          buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

namespace {

constexpr std::uint64_t kLaneMul = 0x9e3779b97f4a7c15ULL;  // odd

/// One lane step: a bijection in `word` for a fixed lane, and in `lane` for
/// a fixed word (xor, multiply by an odd constant, xorshift).
std::uint64_t hash_step(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * kLaneMul;
  return lane ^ (lane >> 29);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

void Hash64::consume_blocks(const std::uint8_t* data, std::size_t blocks) {
  std::uint64_t a = lanes_[0];
  std::uint64_t b = lanes_[1];
  std::uint64_t c = lanes_[2];
  std::uint64_t d = lanes_[3];
  for (; blocks != 0; --blocks, data += kBlock) {
    a = hash_step(a, load_le64(data));
    b = hash_step(b, load_le64(data + 8));
    c = hash_step(c, load_le64(data + 16));
    d = hash_step(d, load_le64(data + 24));
  }
  lanes_[0] = a;
  lanes_[1] = b;
  lanes_[2] = c;
  lanes_[3] = d;
}

void Hash64::add_spanning(const std::uint8_t* data, std::size_t n) {
  std::size_t fill = length_ % kBlock;
  length_ += n;
  if (fill != 0) {
    const std::size_t head = kBlock - fill;
    std::memcpy(buffer_ + fill, data, head);
    consume_blocks(buffer_, 1);
    data += head;
    n -= head;
  }
  const std::size_t blocks = n / kBlock;
  consume_blocks(data, blocks);
  fill = n - blocks * kBlock;
  if (fill != 0) std::memcpy(buffer_, data + blocks * kBlock, fill);
}

std::uint64_t Hash64::value() const {
  const std::size_t fill = length_ % kBlock;
  std::uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
  const std::size_t words = fill / 8;
  for (std::size_t i = 0; i < words; ++i) {
    lanes[i] = hash_step(lanes[i], load_le64(buffer_ + 8 * i));
  }
  // Bytes of buffer_ past `fill` are stale; the mask zeroes them.
  const std::size_t tail_bits = 8 * (fill % 8);
  const std::uint64_t mask = tail_bits == 0 ? 0 : ~0ULL >> (64 - tail_bits);
  const std::uint64_t tail = load_le64(buffer_ + 8 * words) & mask;

  // Each term times its own odd constant: the sum is a bijection in each.
  std::uint64_t h =
      lanes[0] * 0x9e3779b97f4a7c15ULL + lanes[1] * 0xc2b2ae3d27d4eb4fULL +
      lanes[2] * 0x165667b19e3779f9ULL + lanes[3] * 0xd6e8feb86659fd93ULL +
      tail * 0xff51afd7ed558ccdULL + length_ * 0xc4ceb9fe1a85ec53ULL;
  // MurmurHash3's fmix64 finalizer (a bijection) for avalanche.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t hash64(const std::uint8_t* data, std::size_t n) {
  Hash64 h;
  h.add(data, n);
  return h.value();
}

}  // namespace rcs
