#include "src/common/value.h"

#include <algorithm>
#include <new>
#include <sstream>
#include <stdexcept>

#include "src/common/digest.h"

namespace karousos {

namespace {

const Value kNullValue{};

const char* KindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return "bool";
    case Value::Kind::kInt:
      return "int";
    case Value::Kind::kDouble:
      return "double";
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kList:
      return "list";
    case Value::Kind::kMap:
      return "map";
  }
  return "?";
}

void AppendJson(const Value& v, std::ostringstream& out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out << "null";
      break;
    case Value::Kind::kBool:
      out << (v.AsBool() ? "true" : "false");
      break;
    case Value::Kind::kInt:
      out << v.AsInt();
      break;
    case Value::Kind::kDouble:
      out << v.AsDouble();
      break;
    case Value::Kind::kString:
      out << '"';
      for (char c : v.AsString()) {
        if (c == '"' || c == '\\') {
          out << '\\';
        }
        out << c;
      }
      out << '"';
      break;
    case Value::Kind::kList: {
      out << '[';
      bool first = true;
      for (const Value& item : v.AsList()) {
        if (!first) {
          out << ',';
        }
        first = false;
        AppendJson(item, out);
      }
      out << ']';
      break;
    }
    case Value::Kind::kMap: {
      out << '{';
      bool first = true;
      for (const auto& [key, item] : v.AsMap()) {
        if (!first) {
          out << ',';
        }
        first = false;
        out << '"' << key << "\":";
        AppendJson(item, out);
      }
      out << '}';
      break;
    }
  }
}

void DigestInto(const Value& v, Digest& d) {
  d.Update(static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      d.Update(static_cast<uint64_t>(v.AsBool()));
      break;
    case Value::Kind::kInt:
      d.Update(static_cast<uint64_t>(v.AsInt()));
      break;
    case Value::Kind::kDouble: {
      double x = v.AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      __builtin_memcpy(&bits, &x, sizeof(bits));
      d.Update(bits);
      break;
    }
    case Value::Kind::kString:
      d.Update(v.AsString());
      break;
    case Value::Kind::kList:
      d.Update(static_cast<uint64_t>(v.AsList().size()));
      for (const Value& item : v.AsList()) {
        DigestInto(item, d);
      }
      break;
    case Value::Kind::kMap:
      d.Update(static_cast<uint64_t>(v.AsMap().size()));
      for (const auto& [key, item] : v.AsMap()) {
        d.Update(key);
        DigestInto(item, d);
      }
      break;
  }
}

bool KeyLess(const ValueMap::value_type& entry, std::string_view key) {
  return std::string_view(entry.first) < key;
}

}  // namespace

Value::Value(std::string_view s) {
  if (s.size() <= kInlineCapacity) {
    std::memset(bytes_, 0, sizeof(bytes_));
    std::memcpy(bytes_, s.data(), s.size());
    bytes_[kInlineCapacity] =
        static_cast<uint8_t>(static_cast<uint8_t>(Kind::kString) | (s.size() << kLengthShift));
    return;
  }
  void* block = ::operator new(sizeof(StringNode) + s.size());
  auto* n = new (block) StringNode;
  n->size = s.size();
  std::memcpy(reinterpret_cast<char*>(n + 1), s.data(), s.size());
  SetNode(Kind::kString, n);
}

Value::Value(ValueList l) { SetNode(Kind::kList, new ListNode(std::move(l))); }

Value::Value(ValueMap m) { SetNode(Kind::kMap, new MapNode(std::move(m))); }

void Value::ThrowKindMismatch(Kind want) const {
  throw std::logic_error(std::string("Value: ") + KindName(want) + " accessor on a " +
                         KindName(kind()) + " value");
}

void Value::FreeNode(Kind kind, Node* n, DeadList* dead) noexcept {
  // Each child gives up its reference here. A string child that held the
  // last one is freed at once; a list or map child joins the worklist, so
  // freeing never recurses.
  auto drop = [dead](Value& child) {
    if (!child.HasNode()) {
      return;
    }
    const Kind child_kind = child.kind();
    Node* c = child.node();
    std::memset(child.bytes_, 0, sizeof(child.bytes_));
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    if (child_kind == Kind::kString) {
      FreeNode(child_kind, c, dead);
    } else {
      dead->emplace_back(child_kind, c);
    }
  };
  switch (kind) {
    case Kind::kString: {
      auto* s = static_cast<StringNode*>(n);
      s->~StringNode();
      ::operator delete(s);
      break;
    }
    case Kind::kList: {
      auto* l = static_cast<ListNode*>(n);
      for (Value& item : l->items) {
        drop(item);
      }
      delete l;
      break;
    }
    case Kind::kMap: {
      auto* m = static_cast<MapNode*>(n);
      for (auto& entry : m->entries.entries_) {
        drop(entry.second);
      }
      delete m;
      break;
    }
    default:
      break;
  }
}

void Value::Release() noexcept {
  if (node()->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  DeadList dead;
  FreeNode(kind(), node(), &dead);
  while (!dead.empty()) {
    auto [kind, n] = dead.back();
    dead.pop_back();
    FreeNode(kind, n, &dead);
  }
}

bool Value::Truthy() const {
  switch (kind()) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return AsBool();
    case Kind::kInt:
      return AsInt() != 0;
    case Kind::kDouble:
      return AsDouble() != 0.0;
    case Kind::kString:
      return !AsString().empty();
    case Kind::kList:
      return !AsList().empty();
    case Kind::kMap:
      return !AsMap().empty();
  }
  return false;
}

const Value& Value::Field(std::string_view key) const {
  if (!is_map()) {
    return kNullValue;
  }
  auto it = AsMap().find(key);
  return it == AsMap().end() ? kNullValue : it->second;
}

bool Value::HasField(std::string_view key) const { return is_map() && AsMap().count(key) > 0; }

uint64_t Value::DigestValue() const {
  Digest d;
  DigestInto(*this, d);
  return d.Finish();
}

std::string Value::ToString() const {
  std::ostringstream out;
  AppendJson(*this, out);
  return out.str();
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.AsBool() == b.AsBool();
    case Value::Kind::kInt:
      return a.AsInt() == b.AsInt();
    case Value::Kind::kDouble:
      return a.AsDouble() == b.AsDouble();
    case Value::Kind::kString:
      return a.AsString() == b.AsString();
    case Value::Kind::kList:
      return a.AsList() == b.AsList();
    case Value::Kind::kMap:
      return a.AsMap() == b.AsMap();
  }
  return false;
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind());
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return false;
    case Value::Kind::kBool:
      return a.AsBool() < b.AsBool();
    case Value::Kind::kInt:
      return a.AsInt() < b.AsInt();
    case Value::Kind::kDouble:
      return a.AsDouble() < b.AsDouble();
    case Value::Kind::kString:
      return a.AsString() < b.AsString();
    case Value::Kind::kList:
      return a.AsList() < b.AsList();
    case Value::Kind::kMap:
      return a.AsMap() < b.AsMap();
  }
  return false;
}

ValueMap::const_iterator ValueMap::find(std::string_view key) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess);
  return it != entries_.end() && it->first == key ? it : entries_.end();
}

ValueMap::iterator ValueMap::LowerBound(std::string_view key) {
  return std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess);
}

std::pair<ValueMap::iterator, bool> ValueMap::emplace(std::string key, Value value) {
  auto it = LowerBound(key);
  if (it != entries_.end() && it->first == key) {
    return {it, false};
  }
  return {entries_.emplace(it, std::move(key), std::move(value)), true};
}

Value& ValueMap::operator[](std::string_view key) {
  auto it = LowerBound(key);
  if (it == entries_.end() || it->first != key) {
    it = entries_.emplace(it, std::string(key), Value());
  }
  return it->second;
}

size_t ValueMap::erase(std::string_view key) {
  auto it = LowerBound(key);
  if (it == entries_.end() || it->first != key) {
    return 0;
  }
  entries_.erase(it);
  return 1;
}

bool ValueMap::AppendInOrder(std::string key, Value value) {
  if (!entries_.empty() && !(entries_.back().first < key)) {
    return false;
  }
  entries_.emplace_back(std::move(key), std::move(value));
  return true;
}

Value MakeList(std::initializer_list<Value> items) { return Value(ValueList(items)); }

Value MakeMap(std::initializer_list<std::pair<std::string, Value>> fields) {
  ValueMap m;
  m.reserve(fields.size());
  for (const auto& [k, v] : fields) {
    m.emplace(k, v);
  }
  return Value(std::move(m));
}

}  // namespace karousos
