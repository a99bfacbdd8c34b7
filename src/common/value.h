// A JSON-like dynamic value: the datatype that flows through applications,
// request inputs, responses, program variables, and the transactional store.
// It plays the role JavaScript values play in the paper's implementation.
//
// A Value is immutable and 16 bytes. Null, bools, ints, doubles and strings
// of up to 15 bytes live inline. Longer strings, lists and maps live in
// refcounted nodes that are never changed once built, so copying a Value —
// into a re-execution lane, a variable dictionary, a log entry or a
// response — copies a pointer and bumps an atomic count; values are shared
// freely across threads. Each node is one allocation: a string node holds
// its bytes after its header, and a list or map node takes over the vector
// its ValueList or ValueMap was built in. Freeing a node frees the nodes it
// alone held from a worklist, so nesting depth never reaches the stack.
//
// Equality, ordering, DigestValue and the canonical byte encoding
// (ByteWriter::WriteValue in src/common/serde.h) are structural: sharing a
// node never changes a result (a NaN still differs from itself). They are
// used for (a) response comparison against the trace, (b) advice size
// accounting, and (c) value digests feeding control-flow and
// simulate-and-check logic.
#ifndef SRC_COMMON_VALUE_H_
#define SRC_COMMON_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace karousos {

class Value;
class ValueMap;

using ValueList = std::vector<Value>;

class Value {
 public:
  enum class Kind : uint8_t { kNull, kBool, kInt, kDouble, kString, kList, kMap };

  Value() noexcept { std::memset(bytes_, 0, sizeof(bytes_)); }
  Value(bool b) { SetScalar(Kind::kBool, b); }                     // NOLINT(google-explicit-constructor)
  Value(int64_t i) { SetScalar(Kind::kInt, i); }                   // NOLINT(google-explicit-constructor)
  Value(int i) : Value(static_cast<int64_t>(i)) {}                 // NOLINT(google-explicit-constructor)
  Value(uint64_t i) : Value(static_cast<int64_t>(i)) {}            // NOLINT
  Value(double d) { SetScalar(Kind::kDouble, d); }                 // NOLINT(google-explicit-constructor)
  Value(std::string_view s);                                       // NOLINT(google-explicit-constructor)
  Value(const char* s) : Value(std::string_view(s)) {}             // NOLINT(google-explicit-constructor)
  Value(const std::string& s) : Value(std::string_view(s)) {}      // NOLINT(google-explicit-constructor)
  Value(ValueList l);                                              // NOLINT(google-explicit-constructor)
  Value(ValueMap m);                                               // NOLINT(google-explicit-constructor)

  Value(const Value& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    Retain();
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    std::memset(other.bytes_, 0, sizeof(other.bytes_));
  }
  // The old contents go to a temporary, whose destructor releases them.
  Value& operator=(const Value& other) noexcept {
    Value copy(other);
    std::swap(bytes_, copy.bytes_);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value moved(std::move(other));
    std::swap(bytes_, moved.bytes_);
    return *this;
  }
  ~Value() {
    if (HasNode()) {
      Release();
    }
  }

  Kind kind() const { return static_cast<Kind>(tag() & kKindMask); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_list() const { return kind() == Kind::kList; }
  bool is_map() const { return kind() == Kind::kMap; }

  // Accessors: the asserted accessors throw std::logic_error on a kind
  // mismatch (a programming error in application code, which the verifier
  // turns into a re-execution fault); the *Or accessors return a default.
  bool AsBool() const { return Load<bool>(Kind::kBool); }
  int64_t AsInt() const { return Load<int64_t>(Kind::kInt); }
  double AsDouble() const { return Load<double>(Kind::kDouble); }
  // The view lives as long as this Value (or another sharing its node).
  std::string_view AsString() const;
  const ValueList& AsList() const;
  const ValueMap& AsMap() const;

  int64_t IntOr(int64_t def) const { return is_int() ? AsInt() : def; }
  bool BoolOr(bool def) const { return is_bool() ? AsBool() : def; }
  std::string StringOr(std::string def) const {
    return is_string() ? std::string(AsString()) : def;
  }
  // Lazy form of StringOr(v.ToString()): the common pattern evaluated
  // ToString() — an allocation and a format — even when the value already was
  // a string and the default got thrown away.
  std::string StringOrToString() const {
    return is_string() ? std::string(AsString()) : ToString();
  }

  // Truthiness, JavaScript-style: null/false/0/""/[]/{} are falsy.
  bool Truthy() const;

  // Map field access: returns null when absent or when this is not a map.
  const Value& Field(std::string_view key) const;
  bool HasField(std::string_view key) const;

  // 64-bit structural digest of the canonical encoding.
  uint64_t DigestValue() const;

  // Human-readable JSON-ish rendering, for diagnostics and trace dumps.
  std::string ToString() const;

  // True when `a` and `b` share one node or hold identical inline bytes: an
  // O(1) check that never looks inside a node. Identical values encode to
  // the same bytes, so the var-log diff (src/server/advice.h) leaves them
  // out of a patch; equal values built apart are not identical. A NaN is
  // identical to a copy of itself.
  static bool Identical(const Value& a, const Value& b) {
    return std::memcmp(a.bytes_, b.bytes_, sizeof(a.bytes_)) == 0;
  }

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  // Total order across kinds (kind index first), used for deterministic
  // iteration in tests and workload generation.
  friend bool operator<(const Value& a, const Value& b);

 private:
  struct Node {
    std::atomic<size_t> refs{1};
  };
  struct StringNode;
  struct ListNode;
  struct MapNode;

  // bytes_[0..15) hold an inline string, or at offset 0 a scalar or a node
  // pointer. bytes_[15] is the tag: the kind in the low three bits, the
  // node flag, and an inline string's length in the high four bits.
  static constexpr size_t kInlineCapacity = 15;
  static constexpr uint8_t kKindMask = 0x07;
  static constexpr uint8_t kNodeFlag = 0x08;
  static constexpr int kLengthShift = 4;

  uint8_t tag() const { return bytes_[kInlineCapacity]; }
  bool HasNode() const { return (tag() & kNodeFlag) != 0; }
  Node* node() const {
    Node* n = nullptr;
    std::memcpy(&n, bytes_, sizeof(n));
    return n;
  }
  void SetNode(Kind kind, Node* n) {
    std::memset(bytes_, 0, sizeof(bytes_));
    std::memcpy(bytes_, &n, sizeof(n));
    bytes_[kInlineCapacity] = static_cast<uint8_t>(kind) | kNodeFlag;
  }
  template <typename T>
  void SetScalar(Kind kind, T v) {
    std::memset(bytes_, 0, sizeof(bytes_));
    std::memcpy(bytes_, &v, sizeof(v));
    bytes_[kInlineCapacity] = static_cast<uint8_t>(kind);
  }
  template <typename T>
  T Load(Kind want) const {
    CheckKind(want);
    T v{};
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }
  void CheckKind(Kind want) const {
    if (kind() != want) {
      ThrowKindMismatch(want);
    }
  }
  [[noreturn]] void ThrowKindMismatch(Kind want) const;

  void Retain() const {
    if (HasNode()) {
      node()->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Drops this Value's reference and frees every node that loses its last
  // one, from a worklist of dead lists and maps rather than by recursion.
  void Release() noexcept;
  using DeadList = std::vector<std::pair<Kind, Node*>>;
  static void FreeNode(Kind kind, Node* n, DeadList* dead) noexcept;

  alignas(8) unsigned char bytes_[16];
};

// A map from string keys to values, held as one array of entries sorted by
// key. It offers the part of std::map's interface the code uses, with the
// same results: iteration visits keys in increasing order, and emplace
// keeps an existing key's value. Keys must not be changed through an
// iterator.
class ValueMap {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void reserve(size_t n) { entries_.reserve(n); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  const_iterator find(std::string_view key) const;
  size_t count(std::string_view key) const { return find(key) == end() ? 0 : 1; }
  std::pair<iterator, bool> emplace(std::string key, Value value);
  Value& operator[](std::string_view key);
  size_t erase(std::string_view key);
  iterator erase(const_iterator pos) { return entries_.erase(pos); }

  // Appends an entry whose key sorts after every key present, the order of
  // the canonical encoding. Returns false, changing nothing, for any other
  // key: decoders use it to refuse duplicate and out-of-order keys.
  bool AppendInOrder(std::string key, Value value);

  friend bool operator==(const ValueMap& a, const ValueMap& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator<(const ValueMap& a, const ValueMap& b) {
    return a.entries_ < b.entries_;
  }

 private:
  friend class Value;  // FreeNode takes the children of a dying map.

  iterator LowerBound(std::string_view key);

  std::vector<value_type> entries_;
};

struct Value::StringNode : Node {
  size_t size = 0;  // The bytes follow the node in the same allocation.
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
};

struct Value::ListNode : Node {
  explicit ListNode(ValueList l) : items(std::move(l)) {}
  ValueList items;
};

struct Value::MapNode : Node {
  explicit MapNode(ValueMap m) : entries(std::move(m)) {}
  ValueMap entries;
};

inline std::string_view Value::AsString() const {
  CheckKind(Kind::kString);
  if (HasNode()) {
    const auto* n = static_cast<const StringNode*>(node());
    return {n->data(), n->size};
  }
  return {reinterpret_cast<const char*>(bytes_), static_cast<size_t>(tag() >> kLengthShift)};
}

inline const ValueList& Value::AsList() const {
  CheckKind(Kind::kList);
  return static_cast<const ListNode*>(node())->items;
}

inline const ValueMap& Value::AsMap() const {
  CheckKind(Kind::kMap);
  return static_cast<const MapNode*>(node())->entries;
}

// Convenience builders used pervasively by the applications.
Value MakeList(std::initializer_list<Value> items);
Value MakeMap(std::initializer_list<std::pair<std::string, Value>> fields);

}  // namespace karousos

#endif  // SRC_COMMON_VALUE_H_
