#include "rcs/common/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "rcs/common/error.hpp"

namespace rcs {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f64(3.14159);

  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, VarintSmallValuesAreOneByte) {
  ByteWriter w;
  w.write_varint(0);
  w.write_varint(127);
  EXPECT_EQ(w.size(), 2u);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_varint(), 0u);
  EXPECT_EQ(r.read_varint(), 127u);
}

TEST(Bytes, VarintBoundaries) {
  ByteWriter w;
  const std::uint64_t cases[] = {128, 16383, 16384,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (auto v : cases) w.write_varint(v);
  ByteReader r(w.buffer());
  for (auto v : cases) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, StringRoundTripIncludingEmbeddedNul) {
  ByteWriter w;
  const std::string s("a\0b", 3);
  w.write_string(s);
  w.write_string("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_string(), s);
  EXPECT_EQ(r.read_string(), "");
}

TEST(Bytes, BlobRoundTrip) {
  ByteWriter w;
  const Bytes blob{0, 1, 2, 255};
  w.write_bytes(blob);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_bytes(), blob);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u32(7);
  Bytes truncated = w.buffer();
  truncated.pop_back();
  ByteReader r(truncated);
  EXPECT_THROW((void)r.read_u32(), ValueError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.write_string("hello world");
  Bytes truncated = w.buffer();
  truncated.resize(4);
  ByteReader r(truncated);
  EXPECT_THROW((void)r.read_string(), ValueError);
}

TEST(Bytes, MalformedVarintOverflowThrows) {
  // 11 continuation bytes exceed the 64-bit range.
  Bytes bad(11, 0xFF);
  ByteReader r(bad);
  EXPECT_THROW((void)r.read_varint(), ValueError);
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.write_u64(1);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Bytes, Fnv1aIsStableAndSensitive) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 4};
  EXPECT_EQ(fnv1a(a), fnv1a(a));
  EXPECT_NE(fnv1a(a), fnv1a(b));
  EXPECT_NE(fnv1a({}), fnv1a(a));
  EXPECT_EQ(fnv1a(a), hash64(a)) << "fnv1a is the old name of hash64";
}

Bytes counting_bytes(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i + 1);
  }
  return data;
}

TEST(Hash64, KnownAnswersAreIndependentOfTheHostByteOrder) {
  // Words are read little-endian, so every host computes these values and
  // a checksum written by one host verifies on any other. They also pin the
  // checksums on the wire: changing them changes every package checksum and
  // every result `check`. 60 bytes = 1 block, 3 whole words, a 4-byte tail.
  EXPECT_EQ(hash64(Bytes{}), 0xe141ccf17936907aULL);
  EXPECT_EQ(hash64(counting_bytes(7)), 0xce16d455fd29f470ULL);
  EXPECT_EQ(hash64(counting_bytes(60)), 0x5b1076fc970bc8c5ULL);
}

TEST(Hash64, EveryLengthAndATrailingNulHashDifferently) {
  // Lengths 0-40 cover the empty input, a tail alone, whole words after the
  // last block, one full block and a block plus a tail. The final mix folds
  // in the length, so zero padding cannot make two lengths collide.
  std::set<std::uint64_t> hashes;
  std::size_t inputs = 0;
  const auto add = [&](const Bytes& input) {
    hashes.insert(hash64(input));
    ++inputs;
  };
  for (std::size_t n = 0; n <= 40; ++n) {
    Bytes counting = counting_bytes(n);
    add(counting);
    counting.push_back(0);
    add(counting);
    // n zero bytes; 0 and 1 of them are already in as counting inputs.
    if (n >= 2) add(Bytes(n, 0));
  }
  EXPECT_EQ(hashes.size(), inputs);
}

TEST(Hash64, StreamingMatchesOneShotAtEverySplit) {
  const Bytes data = counting_bytes(100);
  const std::uint64_t whole = hash64(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Hash64 h;
    h.add(data.data(), split);
    h.add(data.data() + split, data.size() - split);
    ASSERT_EQ(h.value(), whole) << "split at " << split;
  }
  Hash64 bytewise;
  for (const std::uint8_t byte : data) bytewise.add(byte);
  EXPECT_EQ(bytewise.value(), whole);
}

TEST(Hash64, ValueDoesNotEndTheStream) {
  const Bytes data = counting_bytes(70);
  Hash64 h;
  h.add(data.data(), 35);
  EXPECT_EQ(h.value(), hash64(data.data(), 35));
  h.add(data.data() + 35, 35);
  EXPECT_EQ(h.value(), hash64(data));
}

}  // namespace
}  // namespace rcs
