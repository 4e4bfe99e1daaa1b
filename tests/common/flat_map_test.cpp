// Property tests for FlatMap, the representation of Value maps: seeded random
// sequences of emplace, operator[], erase and find must leave it
// indistinguishable from a std::map reference — same members in the same
// order, same encoding — because encodings, digests and every cmp-gated
// output depend on that order.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "rcs/common/rng.hpp"
#include "rcs/common/value.hpp"

namespace rcs {
namespace {

using Reference = std::map<std::string, Value>;

/// Short keys over an alphabet that exercises the ordering corners: the
/// empty key, prefixes, upper before lower case, and bytes >= 0x80 (which
/// std::string orders as unsigned).
std::string random_key(Rng& rng) {
  static constexpr char kAlphabet[] = {'a', 'b', 'B', '\0', '\x7f', '\x80',
                                       '\xff'};
  std::string key;
  const auto n = rng.uniform_int(0, 3);
  for (int i = 0; i < n; ++i) {
    key += kAlphabet[rng.uniform_int(
        0, static_cast<std::int64_t>(sizeof(kAlphabet)) - 1)];
  }
  return key;
}

/// encode() of a map with `reference`'s members, written without FlatMap.
Bytes encode_reference(const Reference& reference) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
  w.write_varint(reference.size());
  for (const auto& [key, value] : reference) {
    w.write_string(key);
    value.encode(w);
  }
  return w.take();
}

void expect_same(const ValueMap& map, const Reference& reference) {
  ASSERT_EQ(map.size(), reference.size());
  auto it = map.begin();
  for (const auto& [key, value] : reference) {
    ASSERT_EQ(it->first, key);
    ASSERT_EQ(it->second, value);
    ++it;
  }
  EXPECT_EQ(Value(map).encode(), encode_reference(reference));
}

class FlatMapModel : public ::testing::TestWithParam<int> {};

TEST_P(FlatMapModel, RandomOperationsMatchStdMap) {
  Rng rng(0xF1A7 + GetParam());
  ValueMap map;
  Reference reference;
  for (int step = 0; step < 2000; ++step) {
    const std::string key = random_key(rng);
    const Value value(rng.uniform_int(0, 1000));
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // emplace never overwrites, duplicates included
        const auto [it, inserted] = map.emplace(key, value);
        const auto [ref, ref_inserted] = reference.emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(it->first, key);
        ASSERT_EQ(it->second, ref->second);
        break;
      }
      case 1:
        map[key] = value;
        reference[key] = value;
        break;
      case 2:
        ASSERT_EQ(map.erase(key), reference.erase(key));
        break;
      case 3: {  // erase through an iterator from find
        const auto it = map.find(key);
        const auto ref = reference.find(key);
        ASSERT_EQ(it == map.end(), ref == reference.end());
        if (it != map.end()) {
          const auto next = map.erase(it);
          const auto ref_next = reference.erase(ref);
          ASSERT_EQ(next == map.end(), ref_next == reference.end());
          if (next != map.end()) {
            ASSERT_EQ(next->first, ref_next->first);
          }
        }
        break;
      }
      default: {
        const auto it = std::as_const(map).find(key);
        const auto ref = reference.find(key);
        ASSERT_EQ(it == map.end(), ref == reference.end());
        ASSERT_EQ(map.contains(key), reference.contains(key));
        if (it != map.end()) {
          ASSERT_EQ(it->second, ref->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
    if (step % 100 == 0) expect_same(map, reference);
  }
  expect_same(map, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapModel, ::testing::Range(0, 5));

TEST(FlatMap, InitializerListKeepsTheFirstOfEqualKeys) {
  const ValueMap map{{"b", Value(1)}, {"a", Value(2)}, {"b", Value(3)}};
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.begin()->first, "a");
  EXPECT_EQ(map.find("b")->second, Value(1));
}

TEST(FlatMap, DecodeOfADuplicateKeyKeepsTheFirstValue) {
  ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(Value::Type::kMap));
  w.write_varint(3);
  for (const auto& [key, number] :
       {std::pair{"k", 1}, std::pair{"a", 2}, std::pair{"k", 3}}) {
    w.write_string(key);
    Value(number).encode(w);
  }
  const Value decoded = Value::decode(w.take());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded.at("k"), Value(1));
  EXPECT_EQ(decoded.at("a"), Value(2));
}

std::string hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(FlatMap, NestedValueEncodesToTheTreeMapGolden) {
  // Captured from the std::map representation; the members are inserted out
  // of order and include keys that only sort right under unsigned compare.
  Value inner = Value::map();
  inner.set("z", -1).set("a", 2.5).set("", nullptr).set("\xff", "high");
  Value list = Value::list();
  list.push_back(true).push_back(Bytes{0, 1, 255}).push_back(inner);
  Value v = Value::map();
  v.set("zeta", std::int64_t{1} << 40)
      .set("alpha", "x")
      .set("Beta", list)
      .set("beta", inner)
      .set("al", false);
  EXPECT_EQ(hex(v.encode()),
            "070504426574610603010105030001ff070400000161030000000000000440017a"
            "02ffffffffffffffff01ff04046869676802616c010005616c7068610401780462"
            "657461070400000161030000000000000440017a02ffffffffffffffff01ff0404"
            "68696768047a657461020000000000010000");
  EXPECT_EQ(v.digest(), fnv1a(v.encode()));
}

}  // namespace
}  // namespace rcs
