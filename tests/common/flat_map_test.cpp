// Property tests for FlatMap, the representation of Value maps: seeded random
// sequences of emplace, operator[], erase and find must leave it
// indistinguishable from a std::map reference — same members in the same
// order, same encoding — because encodings, digests and every cmp-gated
// output depend on that order. Copies share their source's member block until
// one side is written, so the model also keeps snapshots, each with its own
// reference, and checks that writing one map never shows through another.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rcs/common/rng.hpp"
#include "rcs/common/strf.hpp"
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

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

class FlatMapModel : public ::testing::TestWithParam<int> {};

TEST_P(FlatMapModel, RandomOperationsMatchStdMap) {
  Rng rng(0xF1A7 + GetParam());
  // Slot 0 is the original; the others are snapshots, each copied together
  // with its reference from a random slot at a random step.
  constexpr std::size_t kMaxSlots = 6;
  std::vector<std::pair<ValueMap, Reference>> slots(1);
  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.05)) {
      auto snapshot = slots[pick(rng, slots.size())];
      if (slots.size() < kMaxSlots) {
        slots.push_back(std::move(snapshot));
      } else {
        slots[1 + pick(rng, kMaxSlots - 1)] = std::move(snapshot);
      }
    }
    const std::size_t target = rng.bernoulli(0.5) ? 0 : pick(rng, slots.size());
    auto& [map, reference] = slots[target];
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
      case 1:  // new and existing keys alike
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
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i != target || step % 100 == 0) {
        expect_same(slots[i].first, slots[i].second);
      }
    }
  }
  for (const auto& [map, reference] : slots) expect_same(map, reference);
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

TEST(FlatMap, ReferenceIntoACopySurvivesMutationOfTheOriginal) {
  // Members long enough to live on the heap, so a dangling reference reads
  // freed memory under ASan instead of a stale inline buffer.
  Value original = Value::map();
  for (int i = 0; i < 4; ++i) {
    original.set(strf("k", i), strf("member number ", i, " of the map"));
  }
  const Value copy = original;
  const Value& member = copy.at("k2");
  original.set("k2", "overwritten");
  original.set("k9", 9);
  original.as_map().erase("k0");
  EXPECT_EQ(member, Value("member number 2 of the map"));
  EXPECT_EQ(&member, &copy.at("k2"));
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(original.at("k2"), Value("overwritten"));
  EXPECT_FALSE(original.has("k0"));
}

TEST(FlatMap, ThreadsCopyOneSharedMapAndWriteTheirOwnCopies) {
  // Every thread copies the same const map (bumping one refcount), reads and
  // digests it, then writes its copy at both levels of nesting, which clones
  // the outer block and the inner member's block. Run under TSan in CI.
  Value shared = Value::map();
  for (int i = 0; i < 16; ++i) {
    shared.set(strf("key", i),
               Value::map().set("n", i).set("s", std::string(40, 'x')));
  }
  const Value& source = shared;
  const Bytes expected = source.encode();
  const std::uint64_t expected_digest = source.digest();
  constexpr int kThreads = 4;
  std::array<bool, kThreads> saw_original{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&source, &expected, expected_digest, &saw_original, t] {
      bool same = true;
      for (int round = 0; round < 200; ++round) {
        Value copy = source;
        same = same && copy.digest() == expected_digest &&
               copy.encode() == expected &&
               copy.at("key3").at("n") == Value(3);
        copy.as_map()[strf("key", round % 16)].set("n", t);
        copy.set(strf("thread", t), round);
        same = same && copy.at(strf("thread", t)) == Value(round) &&
               source.digest() == expected_digest;
      }
      saw_original[t] = same;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(saw_original[t]) << t;
  EXPECT_EQ(source.encode(), expected);
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
  EXPECT_EQ(v.digest(), hash64(v.encode()));
}

}  // namespace
}  // namespace rcs
