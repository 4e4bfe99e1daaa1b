#include "rcs/common/value.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs {

namespace {
/// Capacity of a map's first block. Maps on the request path are small and
/// built one set() at a time, so capacity 1 would reallocate at once; more
/// than 2 costs memory, because every copy that outlives the build shares
/// the block and keeps its slack alive (see EXPERIMENTS.md).
constexpr std::size_t kMinCapacity = 2;
}  // namespace

template <typename V>
typename FlatMap<V>::Block* FlatMap<V>::allocate(std::size_t capacity) {
  if (capacity > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FlatMap: too many members");
  }
  void* raw = ::operator new(header_bytes() + capacity * sizeof(value_type));
  return ::new (raw) Block{1, 0, static_cast<std::uint32_t>(capacity)};
}

template <typename V>
void FlatMap<V>::destroy(Block* block) noexcept {
  std::destroy_n(items(block), block->size);
  block->~Block();
  ::operator delete(block);
}

template <typename V>
void FlatMap<V>::reallocate(std::size_t capacity) {
  Block* fresh = allocate(capacity);
  const std::size_t n = size();
  if (n > 0) {
    if (unique()) {
      std::uninitialized_move_n(items(block_), n, items(fresh));
    } else {
      try {
        std::uninitialized_copy_n(items(block_), n, items(fresh));
      } catch (...) {
        ::operator delete(fresh);
        throw;
      }
    }
  }
  fresh->size = static_cast<std::uint32_t>(n);
  release();
  block_ = fresh;
}

template <typename V>
typename FlatMap<V>::value_type& FlatMap<V>::insert(std::size_t at,
                                                    std::string key, V value) {
  const std::size_t n = size();
  if (n == capacity()) {
    reallocate(std::max(kMinCapacity, 2 * n));
  } else if (!unique()) {
    reallocate(capacity());
  }
  value_type* data = items(block_);
  if (at == n) {
    ::new (data + n) value_type(std::move(key), std::move(value));
  } else {
    ::new (data + n) value_type(std::move(data[n - 1]));
    std::move_backward(data + at, data + n - 1, data + n);
    data[at].first = std::move(key);
    data[at].second = std::move(value);
  }
  ++block_->size;
  return data[at];
}

template <typename V>
void FlatMap<V>::erase_at(std::size_t at) {
  if (!unique()) reallocate(size());
  value_type* data = items(block_);
  const std::size_t n = size();
  std::move(data + at + 1, data + n, data + at);
  std::destroy_at(data + n - 1);
  --block_->size;
}

template class FlatMap<Value>;

const char* Value::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kBytes: return "bytes";
    case Type::kList: return "list";
    case Type::kMap: return "map";
  }
  return "unknown";
}

void Value::type_mismatch(Type expected) const {
  throw ValueError(strf("Value type mismatch: expected ", type_name(expected),
                        ", got ", type_name(), " (", to_string(), ")"));
}

bool Value::as_bool() const {
  if (!is_bool()) type_mismatch(Type::kBool);
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  if (!is_int()) type_mismatch(Type::kInt);
  return std::get<std::int64_t>(data_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  if (!is_double()) type_mismatch(Type::kDouble);
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_mismatch(Type::kString);
  return std::get<std::string>(data_);
}

const Bytes& Value::as_bytes() const {
  if (!is_bytes()) type_mismatch(Type::kBytes);
  return std::get<Bytes>(data_);
}

const ValueList& Value::as_list() const {
  if (!is_list()) type_mismatch(Type::kList);
  return std::get<ValueList>(data_);
}

ValueList& Value::as_list() {
  if (!is_list()) type_mismatch(Type::kList);
  return std::get<ValueList>(data_);
}

const ValueMap& Value::as_map() const {
  if (!is_map()) type_mismatch(Type::kMap);
  return std::get<ValueMap>(data_);
}

ValueMap& Value::as_map() {
  if (!is_map()) type_mismatch(Type::kMap);
  return std::get<ValueMap>(data_);
}

bool Value::has(std::string_view key) const {
  return is_map() && as_map().contains(key);
}

const Value& Value::at(std::string_view key) const {
  const auto& m = as_map();
  const auto it = m.find(key);
  if (it == m.end()) {
    throw ValueError(strf("Value::at: missing key '", key, "' in ", to_string()));
  }
  return it->second;
}

Value Value::get_or(std::string_view key, Value fallback) const {
  const auto& m = as_map();
  const auto it = m.find(key);
  return it == m.end() ? std::move(fallback) : it->second;
}

Value& Value::set(std::string_view key, Value v) {
  if (is_null()) data_ = ValueMap{};
  as_map()[key] = std::move(v);
  return *this;
}

Value& Value::push_back(Value v) {
  if (is_null()) data_ = ValueList{};
  as_list().push_back(std::move(v));
  return *this;
}

const Value& Value::at(std::size_t index) const {
  const auto& l = as_list();
  if (index >= l.size()) {
    throw ValueError(strf("Value::at: index ", index, " out of range (size ",
                          l.size(), ")"));
  }
  return l[index];
}

std::size_t Value::size() const {
  if (is_list()) return as_list().size();
  if (is_map()) return as_map().size();
  type_mismatch(Type::kList);
}

namespace {

/// Feeds a Hash64 the exact byte sequence ByteWriter would append, one
/// field at a time.
class DigestWriter {
 public:
  void write_u8(std::uint8_t v) { hash_.add(v); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    write_u64(bits);
  }
  void write_varint(std::uint64_t v) {
    if (v < 0x80) return write_u8(static_cast<std::uint8_t>(v));
    std::uint8_t out[10];
    std::size_t n = 0;
    while (v >= 0x80) {
      out[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    hash_.add(out, n);
  }
  void write_string(std::string_view s) {
    write_varint(s.size());
    hash_.add(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void write_bytes(const Bytes& b) {
    write_varint(b.size());
    hash_.add(b.data(), b.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_.value(); }

 private:
  void write_u64(std::uint64_t v) {
    std::uint8_t out[8];
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    hash_.add(out, sizeof(out));
  }

  Hash64 hash_;
};

/// The one traversal behind encode() and digest().
template <typename Sink>
void write_value(const Value& v, Sink& w) {
  w.write_u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case Value::Type::kNull:
      break;
    case Value::Type::kBool:
      w.write_u8(v.as_bool() ? 1 : 0);
      break;
    case Value::Type::kInt:
      w.write_i64(v.as_int());
      break;
    case Value::Type::kDouble:
      w.write_f64(v.as_double());
      break;
    case Value::Type::kString:
      w.write_string(v.as_string());
      break;
    case Value::Type::kBytes:
      w.write_bytes(v.as_bytes());
      break;
    case Value::Type::kList: {
      const auto& l = v.as_list();
      w.write_varint(l.size());
      for (const auto& e : l) write_value(e, w);
      break;
    }
    case Value::Type::kMap: {
      const auto& m = v.as_map();
      w.write_varint(m.size());
      for (const auto& [k, e] : m) {
        w.write_string(k);
        write_value(e, w);
      }
      break;
    }
  }
}

}  // namespace

void Value::encode(ByteWriter& w) const { write_value(*this, w); }

std::uint64_t Value::digest() const {
  DigestWriter w;
  write_value(*this, w);
  return w.value();
}

std::uint64_t Value::digest_without(std::string_view key) const {
  const auto& m = as_map();
  DigestWriter w;
  w.write_u8(static_cast<std::uint8_t>(Type::kMap));
  w.write_varint(m.size() - (m.contains(key) ? 1 : 0));
  for (const auto& [k, e] : m) {
    if (k == key) continue;
    w.write_string(k);
    write_value(e, w);
  }
  return w.value();
}

Bytes Value::encode() const {
  ByteWriter w;
  w.reserve(encoded_size());
  encode(w);
  return w.take();
}

Value Value::decode(ByteReader& r) {
  const auto tag = r.read_u8();
  if (tag > static_cast<std::uint8_t>(Type::kMap)) {
    throw ValueError(strf("Value::decode: bad type tag ", int(tag)));
  }
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return {};
    case Type::kBool: {
      const auto byte = r.read_u8();
      // Strict: exactly 0 or 1, so every encoding is canonical and any
      // corruption of the payload byte is detectable.
      if (byte > 1) throw ValueError("Value::decode: non-canonical bool");
      return Value(byte == 1);
    }
    case Type::kInt:
      return Value(r.read_i64());
    case Type::kDouble:
      return Value(r.read_f64());
    case Type::kString:
      return Value(r.read_string());
    case Type::kBytes:
      return Value(r.read_bytes());
    case Type::kList: {
      const auto n = r.read_varint();
      ValueList l;
      // Every element takes at least one byte: a corrupt count cannot make
      // the reserve outgrow the input.
      l.reserve(std::min<std::uint64_t>(n, r.remaining()));
      for (std::uint64_t i = 0; i < n; ++i) l.push_back(decode(r));
      return Value(std::move(l));
    }
    case Type::kMap: {
      const auto n = r.read_varint();
      ValueMap m;
      m.reserve(std::min<std::uint64_t>(n, r.remaining() / 2));  // key + tag
      for (std::uint64_t i = 0; i < n; ++i) {
        auto key = r.read_string();
        m.emplace(std::move(key), decode(r));
      }
      return Value(std::move(m));
    }
  }
  throw ValueError("Value::decode: unreachable");
}

Value Value::decode(const Bytes& data) {
  ByteReader r(data);
  auto v = decode(r);
  if (!r.at_end()) {
    throw ValueError("Value::decode: trailing bytes after value");
  }
  return v;
}

// Mirrors encode() exactly (tag byte + payload per type) without touching the
// heap: this runs once per Network::send to price the message, so it must not
// cost a full serialization.
std::size_t Value::encoded_size() const {
  switch (type()) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 2;
    case Type::kInt:
    case Type::kDouble:
      return 1 + 8;
    case Type::kString: {
      const auto& s = std::get<std::string>(data_);
      return 1 + varint_size(s.size()) + s.size();
    }
    case Type::kBytes: {
      const auto& b = std::get<Bytes>(data_);
      return 1 + varint_size(b.size()) + b.size();
    }
    case Type::kList: {
      const auto& l = std::get<ValueList>(data_);
      std::size_t n = 1 + varint_size(l.size());
      for (const auto& v : l) n += v.encoded_size();
      return n;
    }
    case Type::kMap: {
      const auto& m = std::get<ValueMap>(data_);
      std::size_t n = 1 + varint_size(m.size());
      for (const auto& [k, v] : m) {
        n += varint_size(k.size()) + k.size() + v.encoded_size();
      }
      return n;
    }
  }
  throw ValueError("Value::encoded_size: unreachable");
}

namespace {
void render(std::ostream& os, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      os << "null";
      break;
    case Value::Type::kBool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case Value::Type::kInt:
      os << v.as_int();
      break;
    case Value::Type::kDouble:
      os << v.as_double();
      break;
    case Value::Type::kString:
      os << '"' << v.as_string() << '"';
      break;
    case Value::Type::kBytes:
      os << "bytes[" << v.as_bytes().size() << ']';
      break;
    case Value::Type::kList: {
      os << '[';
      bool first = true;
      for (const auto& e : v.as_list()) {
        if (!first) os << ',';
        first = false;
        render(os, e);
      }
      os << ']';
      break;
    }
    case Value::Type::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, e] : v.as_map()) {
        if (!first) os << ',';
        first = false;
        os << '"' << k << "\":";
        render(os, e);
      }
      os << '}';
      break;
    }
  }
}
}  // namespace

std::string Value::to_string() const {
  std::ostringstream os;
  render(os, *this);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  render(os, v);
  return os;
}

}  // namespace rcs
