// Dynamic value model.
//
// The reflective component layer dispatches operations dynamically
// (invoke(op, Value) -> Value) so that reconfiguration scripts can rewire
// assemblies at runtime without the C++ type system pinning the architecture;
// Value is the argument/result type of that dynamic plane. It also backs
// component properties, checkpoints, and network message payloads.
//
// A Value is null, a bool, an int64, a double, a string, a byte blob, a list,
// or a string-keyed map. Values serialize to Bytes with a stable binary
// encoding (used for checkpoints and for sizing simulated network traffic).
//
// Maps are FlatMaps: sorted (key, Value) members, in the key order
// std::map<std::string, Value> would use, so every encoding, digest and
// rendering is the one a tree map gives. The members live in one refcounted
// block together with the map's size and capacity; an empty map has no block.
// Copying a map shares its block and allocates nothing. The first mutation of
// a shared block (set, operator[], emplace, erase, a growing reserve) clones
// it, so a map copy behaves as a deep copy. Reading never clones: iterators
// and find() are const-only. The refcount is atomic, so threads may copy one
// shared const map concurrently.
//
// Invalidation rule: any mutation of a map may move every member, so it
// invalidates all references, pointers and iterators into that map, including
// a `const Value&` obtained from at(). Copy a member out before mutating the
// same map; references into other maps, copies included, are unaffected. A
// mutable reference from operator[] (or from as_map() of a member) must not
// be held across a copy of the same map: writing through it afterwards would
// change the copy too.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "rcs/common/bytes.hpp"

namespace rcs {

class Value;

/// Copy-on-write sorted map with the subset of the std::map API that Value
/// needs. Keys compare as std::string does; an insert never overwrites an
/// existing key. See the sharing and invalidation rules at the top of this
/// file. The slow paths (allocate, clone, grow, destroy) are defined in
/// value.cpp, which instantiates FlatMap<Value>.
template <typename V>
class FlatMap {
 public:
  using value_type = std::pair<std::string, V>;
  using const_iterator = const value_type*;

  FlatMap() = default;
  /// As for std::map, the first of several equal keys wins.
  FlatMap(std::initializer_list<value_type> members) {
    reserve(members.size());
    for (const auto& [key, value] : members) emplace(key, value);
  }
  // Not noexcept, though it cannot throw: std::variant then assigns a map to
  // a Value of another type through a temporary copy, so `value =
  // value.at(0)` stays safe when destroying the old list frees the member.
  FlatMap(const FlatMap& other) : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  FlatMap(FlatMap&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  FlatMap& operator=(const FlatMap& other) {
    FlatMap(other).swap(*this);
    return *this;
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    FlatMap(std::move(other)).swap(*this);
    return *this;
  }
  ~FlatMap() { release(); }

  [[nodiscard]] const_iterator begin() const {
    return block_ == nullptr ? nullptr : items(block_);
  }
  [[nodiscard]] const_iterator end() const { return begin() + size(); }
  [[nodiscard]] std::size_t size() const {
    return block_ == nullptr ? 0 : block_->size;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Room for `n` members; never shrinks, and clones a shared block only
  /// when it has to grow.
  void reserve(std::size_t n) {
    if (n > capacity()) reallocate(n);
  }

  [[nodiscard]] const_iterator find(std::string_view key) const {
    const auto at = position(key);
    return at != size() && items(block_)[at].first == key ? begin() + at
                                                           : end();
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != end();
  }

  /// Insert unless `key` is present; returns the member and whether it is new.
  std::pair<const_iterator, bool> emplace(std::string key, V value) {
    const auto at = position(key);
    if (at != size() && items(block_)[at].first == key) {
      return {begin() + at, false};
    }
    return {&insert(at, std::move(key), std::move(value)), true};
  }

  /// The member for `key`, default-constructed first if missing.
  V& operator[](std::string_view key) {
    const auto at = position(key);
    if (at == size() || items(block_)[at].first != key) {
      return insert(at, std::string(key), V{}).second;
    }
    if (!unique()) reallocate(size());
    return items(block_)[at].second;
  }

  std::size_t erase(std::string_view key) {
    const auto it = find(key);
    if (it == end()) return 0;
    erase_at(static_cast<std::size_t>(it - begin()));
    return 1;
  }
  /// Erase the member `it` points at; returns the iterator to its successor.
  const_iterator erase(const_iterator it) {
    const auto at = static_cast<std::size_t>(it - begin());
    erase_at(at);
    return begin() + at;
  }

  bool operator==(const FlatMap& other) const {
    return size() == other.size() &&
           (block_ == other.block_ || std::equal(begin(), end(), other.begin()));
  }

 private:
  /// Header of a member block; the members follow it in the same allocation.
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    std::uint32_t capacity;
  };

  /// Offset of the first member: the header rounded up to the member
  /// alignment.
  static constexpr std::size_t header_bytes() {
    return (sizeof(Block) + alignof(value_type) - 1) / alignof(value_type) *
           alignof(value_type);
  }
  static value_type* items(Block* block) {
    return std::launder(reinterpret_cast<value_type*>(
        reinterpret_cast<char*>(block) + header_bytes()));
  }

  void swap(FlatMap& other) noexcept { std::swap(block_, other.block_); }

  [[nodiscard]] std::size_t capacity() const {
    return block_ == nullptr ? 0 : block_->capacity;
  }
  /// True when no other map shares the block. A count of one cannot rise
  /// concurrently: only a holder of the block can copy it.
  [[nodiscard]] bool unique() const {
    return block_->refs.load(std::memory_order_acquire) == 1;
  }
  void release() noexcept {
    if (block_ != nullptr &&
        (unique() || block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)) {
      destroy(block_);
    }
  }

  /// Index of the first member whose key is not less than `key`. Members
  /// usually arrive in key order (decode, copies of sorted sources), so a key
  /// past the last one appends without a search.
  [[nodiscard]] std::size_t position(std::string_view key) const {
    const std::size_t n = size();
    if (n == 0 || std::string_view(items(block_)[n - 1].first) < key) return n;
    const value_type* first = items(block_);
    return static_cast<std::size_t>(
        std::lower_bound(first, first + n, key,
                         [](const value_type& item, std::string_view k) {
                           return std::string_view(item.first) < k;
                         }) -
        first);
  }

  static Block* allocate(std::size_t capacity);
  static void destroy(Block* block) noexcept;
  /// Give this map a block of its own with room for `capacity` members:
  /// moves the members out of an unshared block, copies a shared one. A
  /// clone for an overwrite or erase is sized to the members, as a vector
  /// copy would be.
  void reallocate(std::size_t capacity);
  /// Insert before index `at`, cloning or growing the block first if needed.
  value_type& insert(std::size_t at, std::string key, V value);
  void erase_at(std::size_t at);

  Block* block_ = nullptr;
};

using ValueList = std::vector<Value>;
using ValueMap = FlatMap<Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull = 0,
    kBool = 1,
    kInt = 2,
    kDouble = 3,
    kString = 4,
    kBytes = 5,
    kList = 6,
    kMap = 7,
  };

  Value() = default;
  Value(std::nullptr_t) {}                 // NOLINT: implicit by design
  Value(bool v) : data_(v) {}              // NOLINT
  Value(std::int64_t v) : data_(v) {}      // NOLINT
  Value(int v) : data_(std::int64_t{v}) {}           // NOLINT
  Value(unsigned v) : data_(std::int64_t{v}) {}      // NOLINT
  Value(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}            // NOLINT
  Value(std::string v) : data_(std::move(v)) {}      // NOLINT
  Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
  Value(const char* v) : data_(std::string(v)) {}    // NOLINT
  Value(Bytes v) : data_(std::move(v)) {}  // NOLINT
  Value(ValueList v) : data_(std::move(v)) {}        // NOLINT
  Value(ValueMap v) : data_(std::move(v)) {}         // NOLINT

  [[nodiscard]] static Value list() { return Value(ValueList{}); }
  [[nodiscard]] static Value map() { return Value(ValueMap{}); }

  [[nodiscard]] Type type() const { return static_cast<Type>(data_.index()); }
  [[nodiscard]] static const char* type_name(Type t);
  [[nodiscard]] const char* type_name() const { return type_name(type()); }

  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type() == Type::kDouble; }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_bytes() const { return type() == Type::kBytes; }
  [[nodiscard]] bool is_list() const { return type() == Type::kList; }
  [[nodiscard]] bool is_map() const { return type() == Type::kMap; }

  // Typed accessors; throw ValueError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts int
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Bytes& as_bytes() const;
  [[nodiscard]] const ValueList& as_list() const;
  [[nodiscard]] ValueList& as_list();
  [[nodiscard]] const ValueMap& as_map() const;
  [[nodiscard]] ValueMap& as_map();

  // --- Map helpers -----------------------------------------------------
  [[nodiscard]] bool has(std::string_view key) const;
  /// Member lookup; throws ValueError if not a map or key missing. The
  /// reference dies at the next mutation of this map (see the file comment).
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// Member lookup with default for missing keys (still throws if not map).
  [[nodiscard]] Value get_or(std::string_view key, Value fallback) const;
  /// Insert/overwrite a member. A null Value silently becomes a map first.
  Value& set(std::string_view key, Value v);

  // --- List helpers ----------------------------------------------------
  Value& push_back(Value v);
  [[nodiscard]] const Value& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;  // list or map element count

  // --- Codec -----------------------------------------------------------
  void encode(ByteWriter& w) const;
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Value decode(ByteReader& r);
  [[nodiscard]] static Value decode(const Bytes& data);
  /// Encoded size in bytes; used for network traffic accounting.
  [[nodiscard]] std::size_t encoded_size() const;
  /// hash64(encode()), computed without serializing.
  [[nodiscard]] std::uint64_t digest() const;
  /// digest() of this map as if its member `key` were erased; throws
  /// ValueError if this is not a map.
  [[nodiscard]] std::uint64_t digest_without(std::string_view key) const;

  /// JSON-like rendering for logs and diagnostics.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Value&) const = default;

  friend std::ostream& operator<<(std::ostream& os, const Value& v);

 private:
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, Bytes, ValueList, ValueMap>;

  [[noreturn]] void type_mismatch(Type expected) const;

  Storage data_{nullptr};
};

}  // namespace rcs
