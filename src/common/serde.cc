#include "src/common/serde.h"

namespace karousos {

void ByteWriter::WriteVarint(uint64_t v) {
  // Encode into a stack scratch first so the vector pays one growth check
  // per varint instead of one per byte (10 bytes max for a 64-bit value).
  uint8_t scratch[10];
  size_t n = 0;
  while (v >= 0x80) {
    scratch[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  scratch[n++] = static_cast<uint8_t>(v);
  buf_.insert(buf_.end(), scratch, scratch + n);
}

void ByteWriter::WriteFixed64(uint64_t v) {
  uint8_t scratch[8];
  for (int i = 0; i < 8; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  buf_.insert(buf_.end(), scratch, scratch + 8);
}

void ByteWriter::WriteFixed32(uint32_t v) {
  uint8_t scratch[4];
  for (int i = 0; i < 4; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  buf_.insert(buf_.end(), scratch, scratch + 4);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::WriteValue(const Value& v) {
  WriteByte(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      WriteBool(v.AsBool());
      break;
    case Value::Kind::kInt: {
      // ZigZag so negative ints stay small.
      int64_t i = v.AsInt();
      WriteVarint((static_cast<uint64_t>(i) << 1) ^ static_cast<uint64_t>(i >> 63));
      break;
    }
    case Value::Kind::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      WriteFixed64(bits);
      break;
    }
    case Value::Kind::kString:
      WriteString(v.AsString());
      break;
    case Value::Kind::kList:
      WriteVarint(v.AsList().size());
      for (const Value& item : v.AsList()) {
        WriteValue(item);
      }
      break;
    case Value::Kind::kMap:
      WriteVarint(v.AsMap().size());
      for (const auto& [key, item] : v.AsMap()) {
        WriteString(key);
        WriteValue(item);
      }
      break;
  }
}

void SerializeOpRef(const OpRef& op, ByteWriter* out) {
  out->WriteVarint(op.rid);
  out->WriteFixed64(op.hid);
  out->WriteVarint(op.opnum);
}

std::optional<OpRef> DeserializeOpRef(ByteReader* in) {
  auto rid = in->ReadVarint();
  auto hid = in->ReadFixed64();
  auto opnum = Narrow32(in->ReadVarint());
  if (!rid || !hid || !opnum) {
    return std::nullopt;
  }
  return OpRef{*rid, *hid, *opnum};
}

void SerializeTxOpRef(const TxOpRef& op, ByteWriter* out) {
  out->WriteVarint(op.rid);
  out->WriteFixed64(op.tid);
  out->WriteVarint(op.index);
}

std::optional<TxOpRef> DeserializeTxOpRef(ByteReader* in) {
  auto rid = in->ReadVarint();
  auto tid = in->ReadFixed64();
  auto index = Narrow32(in->ReadVarint());
  if (!rid || !tid || !index) {
    return std::nullopt;
  }
  return TxOpRef{*rid, *tid, *index};
}

void SerializeTxnKey(const TxnKey& txn, ByteWriter* out) {
  out->WriteVarint(txn.rid);
  out->WriteFixed64(txn.tid);
}

std::optional<TxnKey> DeserializeTxnKey(ByteReader* in) {
  auto rid = in->ReadVarint();
  auto tid = in->ReadFixed64();
  if (!rid || !tid) {
    return std::nullopt;
  }
  return TxnKey{*rid, *tid};
}

namespace {

// Nibble-sliced CRC-32 table (16 entries) for the reflected IEEE polynomial
// 0xEDB88320: small enough to keep in cache, fast enough for segment files.
constexpr uint32_t kCrcNibble[16] = {
    0x00000000, 0x1db71064, 0x3b6e20c8, 0x26d930ac, 0x76dc4190, 0x6b6b51f4,
    0x4db26158, 0x5005713c, 0xedb88320, 0xf00f9344, 0xd6d6a3e8, 0xcb61b38c,
    0x9b64c2b0, 0x86d3d2d4, 0xa00ae278, 0xbdbdf21c};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0f];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0f];
  }
  return crc ^ 0xffffffffu;
}

std::optional<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (pos_ < size_) {
    uint8_t b = buf_[pos_++];
    if (shift >= 64) {
      return std::nullopt;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  return std::nullopt;
}

std::optional<uint64_t> ByteReader::ReadFixed64() {
  if (size_ - pos_ < 8) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(buf_[pos_++]) << (i * 8);
  }
  return v;
}

std::optional<uint32_t> ByteReader::ReadFixed32() {
  if (size_ - pos_ < 4) {
    return std::nullopt;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(buf_[pos_++]) << (i * 8);
  }
  return v;
}

std::optional<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= size_) {
    return std::nullopt;
  }
  return buf_[pos_++];
}

std::optional<std::string_view> ByteReader::ReadStringView() {
  auto len = ReadVarint();
  if (!len || *len > remaining()) {
    return std::nullopt;
  }
  std::string_view s(reinterpret_cast<const char*>(buf_ + pos_), *len);
  pos_ += *len;
  return s;
}

std::optional<std::string> ByteReader::ReadString() {
  auto view = ReadStringView();
  if (!view) {
    return std::nullopt;
  }
  return std::string(*view);
}

std::optional<bool> ByteReader::ReadBool() {
  auto b = ReadByte();
  if (!b || *b > 1) {
    return std::nullopt;
  }
  return *b == 1;
}

std::optional<Value> ByteReader::ReadValueAt(size_t depth) {
  auto kind_byte = ReadByte();
  if (!kind_byte || *kind_byte > static_cast<uint8_t>(Value::Kind::kMap)) {
    return std::nullopt;
  }
  switch (static_cast<Value::Kind>(*kind_byte)) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      auto b = ReadBool();
      if (!b) {
        return std::nullopt;
      }
      return Value(*b);
    }
    case Value::Kind::kInt: {
      auto z = ReadVarint();
      if (!z) {
        return std::nullopt;
      }
      int64_t i = static_cast<int64_t>((*z >> 1) ^ (~(*z & 1) + 1));
      return Value(i);
    }
    case Value::Kind::kDouble: {
      auto bits = ReadFixed64();
      if (!bits) {
        return std::nullopt;
      }
      double d;
      __builtin_memcpy(&d, &*bits, sizeof(d));
      return Value(d);
    }
    case Value::Kind::kString: {
      auto s = ReadStringView();
      if (!s) {
        return std::nullopt;
      }
      return Value(*s);
    }
    case Value::Kind::kList: {
      auto n = ReadVarint();
      // An item is at least its kind byte.
      if (!n || !CanHold(*n, 1) || depth == kMaxValueDepth) {
        return std::nullopt;
      }
      ValueList items;
      items.reserve(*n);
      for (uint64_t i = 0; i < *n; ++i) {
        auto item = ReadValueAt(depth + 1);
        if (!item) {
          return std::nullopt;
        }
        items.push_back(std::move(*item));
      }
      return Value(std::move(items));
    }
    case Value::Kind::kMap: {
      auto n = ReadVarint();
      // An entry is at least a key length and a kind byte.
      if (!n || !CanHold(*n, 2) || depth == kMaxValueDepth) {
        return std::nullopt;
      }
      ValueMap m;
      m.reserve(static_cast<size_t>(*n));
      for (uint64_t i = 0; i < *n; ++i) {
        auto key = ReadString();
        if (!key) {
          return std::nullopt;
        }
        auto item = ReadValueAt(depth + 1);
        // The encoding writes keys in increasing order: a duplicate or an
        // out-of-order key is not a canonical encoding.
        if (!item || !m.AppendInOrder(std::move(*key), std::move(*item))) {
          return std::nullopt;
        }
      }
      return Value(std::move(m));
    }
  }
  return std::nullopt;
}

}  // namespace karousos
