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
// Maps are FlatMaps: one sorted vector of (key, Value) members, in the key
// order std::map<std::string, Value> would use, so every encoding, digest and
// rendering is the one a tree map gives. Copying a map costs one allocation
// for its member block (plus whatever the members own), not one per member.
//
// Invalidation rule: inserting into a map (set() or operator[] on a new key,
// emplace) or erasing from it may move every member, so it invalidates all
// references, pointers and iterators into that map, including a `const
// Value&` obtained from at(). Copy a member out before inserting into the
// same map; references into other maps are unaffected.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "rcs/common/bytes.hpp"

namespace rcs {

class Value;

/// Sorted vector map with the subset of the std::map API that Value needs.
/// Keys compare as std::string does; an insert never overwrites an existing
/// key. See the invalidation rule at the top of this file.
template <typename V>
class FlatMap {
 public:
  using value_type = std::pair<std::string, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  /// As for std::map, the first of several equal keys wins.
  FlatMap(std::initializer_list<value_type> members) {
    items_.reserve(members.size());
    for (const auto& [key, value] : members) emplace(key, value);
  }

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] iterator find(std::string_view key) {
    const auto it = position(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(std::string_view key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != end();
  }

  /// Insert unless `key` is present; returns the member and whether it is new.
  std::pair<iterator, bool> emplace(std::string key, V value) {
    const auto it = position(key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {insert(it, std::move(key), std::move(value)), true};
  }

  /// The member for `key`, default-constructed first if missing.
  V& operator[](std::string_view key) {
    auto it = position(key);
    if (it == items_.end() || it->first != key) {
      it = insert(it, std::string(key), V{});
    }
    return it->second;
  }

  std::size_t erase(std::string_view key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }
  iterator erase(const_iterator it) { return items_.erase(it); }

  bool operator==(const FlatMap&) const = default;

 private:
  /// First member whose key is not less than `key`. Members usually arrive in
  /// key order (decode, copies of sorted sources), so a key past the last one
  /// appends without a search.
  [[nodiscard]] iterator position(std::string_view key) {
    if (items_.empty() || std::string_view(items_.back().first) < key) {
      return items_.end();
    }
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const value_type& item, std::string_view k) {
                              return std::string_view(item.first) < k;
                            });
  }

  /// Insert before `it`. The first insert sizes the block for a few members
  /// at once: maps on the request path are small and built one set() at a
  /// time, and growing from capacity 1 would reallocate at sizes 1, 2 and 4.
  iterator insert(iterator it, std::string key, V value) {
    if (items_.size() == items_.capacity()) {
      const auto offset = it - items_.begin();
      items_.reserve(std::max<std::size_t>(kMinCapacity, 2 * items_.size()));
      it = items_.begin() + offset;
    }
    return items_.emplace(it, std::move(key), std::move(value));
  }

  static constexpr std::size_t kMinCapacity = 4;

  std::vector<value_type> items_;
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
  /// reference dies at the next insert into this map (see the file comment).
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
  /// fnv1a(encode()), computed without serializing.
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
