#include "src/common/kcodec.h"

#include <cstring>
#include <memory>

namespace karousos {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// Hash-chain matcher: 15-bit head table, bounded walk per position. Deep
// enough to find the long repeats that dominate advice payloads (digest
// tables, repeated keys) without quadratic blowup on pathological input.
constexpr size_t kHashBits = 15;
constexpr int kMaxChainDepth = 32;
// A match longer than twice this hashes only this many positions at each
// end: a later repeat of the run is found through them, and hashing every
// position of the long repeats in advice payloads was most of the encoder's
// time.
constexpr size_t kMatchEdge = 16;
// A stored byte can contribute at most a 255-run extension byte's worth of
// output, so decoded_size has a hard structural ceiling relative to the
// stored size; anything above it is forged.
constexpr uint64_t kMaxExpansion = 255;

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t HashOf(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

// The length of the common prefix of p and q, at most max_len, compared a
// word at a time.
size_t MatchLength(const uint8_t* p, const uint8_t* q, size_t max_len) {
  size_t len = 0;
  while (len + sizeof(uint64_t) <= max_len) {
    uint64_t a;
    uint64_t b;
    std::memcpy(&a, p + len, sizeof(a));
    std::memcpy(&b, q + len, sizeof(b));
    if (a != b) {
      return len + static_cast<size_t>(__builtin_ctzll(a ^ b) / 8);
    }
    len += sizeof(uint64_t);
  }
  while (len < max_len && p[len] == q[len]) {
    ++len;
  }
  return len;
}

// One sequence: literals then (unless final) a back-reference.
void EmitSequence(const uint8_t* literals, size_t literal_len, size_t match_len, size_t offset,
                  std::vector<uint8_t>* out) {
  const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const uint8_t lit_nibble = literal_len >= 15 ? 15 : static_cast<uint8_t>(literal_len);
  const uint8_t match_nibble = match_code >= 15 ? 15 : static_cast<uint8_t>(match_code);
  out->push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
  if (literal_len >= 15) {
    size_t rest = literal_len - 15;
    while (rest >= 255) {
      out->push_back(255);
      rest -= 255;
    }
    out->push_back(static_cast<uint8_t>(rest));
  }
  out->insert(out->end(), literals, literals + literal_len);
  if (match_len != 0) {
    out->push_back(static_cast<uint8_t>(offset & 0xff));
    out->push_back(static_cast<uint8_t>(offset >> 8));
    if (match_code >= 15) {
      size_t rest = match_code - 15;
      while (rest >= 255) {
        out->push_back(255);
        rest -= 255;
      }
      out->push_back(static_cast<uint8_t>(rest));
    }
  }
}

}  // namespace

void BlockCompress(const uint8_t* data, size_t size, std::vector<uint8_t>* out) {
  if (size == 0) {
    return;
  }
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  // chain[i] is written when position i is hashed, before any walk can
  // reach it, so it starts uninitialized.
  std::unique_ptr<int64_t[]> chain(new int64_t[size]);
  size_t anchor = 0;
  size_t i = 0;
  while (i + kMinMatch <= size) {
    const uint32_t h = HashOf(Load32(data + i));
    int64_t cand = head[h];
    size_t best_len = 0;
    size_t best_offset = 0;
    int depth = 0;
    const uint8_t* q = data + i;
    const size_t max_len = size - i;
    while (cand >= 0 && depth < kMaxChainDepth &&
           i - static_cast<size_t>(cand) <= kMaxOffset && best_len < max_len) {
      const uint8_t* p = data + cand;
      // A candidate that differs at best_len cannot be longer: skip the
      // compare. Neither this nor stopping at max_len changes the match.
      const size_t len =
          best_len != 0 && p[best_len] != q[best_len] ? 0 : MatchLength(p, q, max_len);
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_offset = i - static_cast<size_t>(cand);
      }
      cand = chain[static_cast<size_t>(cand)];
      ++depth;
    }
    if (best_len >= kMinMatch) {
      EmitSequence(data + anchor, i - anchor, best_len, best_offset, out);
      const size_t end = i + best_len;
      const size_t skip_from = best_len > 2 * kMatchEdge ? i + kMatchEdge : end;
      for (size_t pos = i; pos < end && pos + kMinMatch <= size; ++pos) {
        if (pos == skip_from) {
          pos = end - kMatchEdge;
          if (pos + kMinMatch > size) {
            break;
          }
        }
        const uint32_t hh = HashOf(Load32(data + pos));
        chain[pos] = head[hh];
        head[hh] = static_cast<int64_t>(pos);
      }
      i = end;
      anchor = end;
    } else {
      chain[i] = head[h];
      head[h] = static_cast<int64_t>(i);
      ++i;
    }
  }
  // Final literals-only sequence (always present, possibly empty): the
  // decoder's terminator.
  EmitSequence(data + anchor, size - anchor, 0, 0, out);
}

std::optional<std::vector<uint8_t>> BlockDecompress(const uint8_t* data, size_t size,
                                                    size_t decoded_size) {
  std::vector<uint8_t> out;
  out.reserve(decoded_size);
  size_t pos = 0;
  if (decoded_size == 0) {
    return size == 0 ? std::optional<std::vector<uint8_t>>(std::move(out)) : std::nullopt;
  }
  // The stream must end with a literals-only final sequence (possibly empty);
  // ending on a match means the terminator was truncated away.
  bool terminated = false;
  while (pos < size) {
    const uint8_t token = data[pos++];
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      uint8_t b;
      do {
        if (pos >= size) {
          return std::nullopt;
        }
        b = data[pos++];
        literal_len += b;
      } while (b == 255);
    }
    if (literal_len > size - pos || out.size() + literal_len > decoded_size) {
      return std::nullopt;
    }
    out.insert(out.end(), data + pos, data + pos + literal_len);
    pos += literal_len;
    if (pos == size) {
      // Final sequence: literals only.
      if ((token & 0x0f) != 0) {
        return std::nullopt;
      }
      terminated = true;
      break;
    }
    if (size - pos < 2) {
      return std::nullopt;
    }
    const size_t offset =
        static_cast<size_t>(data[pos]) | (static_cast<size_t>(data[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) {
      return std::nullopt;
    }
    size_t match_len = token & 0x0f;
    if (match_len == 15) {
      uint8_t b;
      do {
        if (pos >= size) {
          return std::nullopt;
        }
        b = data[pos++];
        match_len += b;
      } while (b == 255);
    }
    match_len += kMinMatch;
    if (out.size() + match_len > decoded_size) {
      return std::nullopt;
    }
    // Byte-by-byte when the match overlaps itself (offset < match_len), so
    // it replicates exactly as the encoder's greedy matcher assumes.
    const size_t from = out.size() - offset;
    if (offset >= match_len) {
      out.resize(out.size() + match_len);
      std::memcpy(out.data() + from + offset, out.data() + from, match_len);
    } else {
      for (size_t k = 0; k < match_len; ++k) {
        out.push_back(out[from + k]);
      }
    }
  }
  if (!terminated || out.size() != decoded_size) {
    return std::nullopt;
  }
  return out;
}

std::vector<uint8_t> BlockFrameEncode(const uint8_t* data, size_t size) {
  ByteWriter prefix;
  prefix.WriteVarint(size);
  std::vector<uint8_t> out = prefix.Take();
  BlockCompress(data, size, &out);
  return out;
}

std::optional<std::vector<uint8_t>> BlockFrameDecode(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  auto decoded_size = reader.ReadVarint();
  if (!decoded_size) {
    return std::nullopt;
  }
  const size_t body = reader.remaining();
  if (*decoded_size > kMaxExpansion * static_cast<uint64_t>(body) + 64) {
    return std::nullopt;  // Forged size: no honest stream expands this much.
  }
  return BlockDecompress(data + (size - body), body, static_cast<size_t>(*decoded_size));
}

std::optional<std::vector<uint64_t>> ReadU64Dict(ByteReader* in) {
  auto count = in->ReadVarint();
  if (!count || !in->CanHold(*count, 8)) {
    return std::nullopt;
  }
  std::vector<uint64_t> dict;
  dict.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto v = in->ReadFixed64();
    if (!v) {
      return std::nullopt;
    }
    dict.push_back(*v);
  }
  return dict;
}

std::optional<std::vector<std::string_view>> ReadStringDict(ByteReader* in) {
  auto count = in->ReadVarint();
  // A string is at least its length byte.
  if (!count || !in->CanHold(*count, 1)) {
    return std::nullopt;
  }
  std::vector<std::string_view> dict;
  dict.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto s = in->ReadStringView();
    if (!s) {
      return std::nullopt;
    }
    dict.push_back(*s);
  }
  return dict;
}

void FieldEncoder::Finish() {
  if (tables_) {
    tables_->ids.Serialize(out_);
    tables_->strs.Serialize(out_);
    out_->WriteBytes(scratch_.bytes().data(), scratch_.size());
  }
}

void FieldEncoder::DictVal(const Value& v) {
  body_->WriteByte(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      body_->WriteBool(v.AsBool());
      break;
    case Value::Kind::kInt:
      body_->WriteVarint(ZigzagEncode(v.AsInt()));
      break;
    case Value::Kind::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      body_->WriteFixed64(bits);
      break;
    }
    case Value::Kind::kString:
      Str(v.AsString());
      break;
    case Value::Kind::kList:
      body_->WriteVarint(v.AsList().size());
      for (const Value& item : v.AsList()) {
        DictVal(item);
      }
      break;
    case Value::Kind::kMap:
      body_->WriteVarint(v.AsMap().size());
      for (const auto& [key, item] : v.AsMap()) {
        Str(key);
        DictVal(item);
      }
      break;
  }
}

bool FieldDecoder::Init() {
  if (!dict_) {
    return true;
  }
  auto ids = ReadU64Dict(in_);
  if (!ids) {
    return false;
  }
  auto strs = ReadStringDict(in_);
  if (!strs) {
    return false;
  }
  ids_ = std::move(*ids);
  strs_ = std::move(*strs);
  return true;
}

std::optional<Value> FieldDecoder::DictVal(size_t depth) {
  auto kind_byte = in_->ReadByte();
  if (!kind_byte || *kind_byte > static_cast<uint8_t>(Value::Kind::kMap)) {
    return std::nullopt;
  }
  switch (static_cast<Value::Kind>(*kind_byte)) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      auto b = in_->ReadBool();
      if (!b) {
        return std::nullopt;
      }
      return Value(*b);
    }
    case Value::Kind::kInt: {
      auto z = in_->ReadVarint();
      if (!z) {
        return std::nullopt;
      }
      return Value(ZigzagDecode(*z));
    }
    case Value::Kind::kDouble: {
      auto bits = in_->ReadFixed64();
      if (!bits) {
        return std::nullopt;
      }
      double d;
      std::memcpy(&d, &*bits, sizeof(d));
      return Value(d);
    }
    case Value::Kind::kString: {
      auto s = StrView();
      if (!s) {
        return std::nullopt;
      }
      return Value(*s);
    }
    case Value::Kind::kList: {
      auto n = in_->ReadVarint();
      if (!n || !in_->CanHold(*n, 1) || depth == kMaxValueDepth) {
        return std::nullopt;
      }
      ValueList items;
      items.reserve(static_cast<size_t>(*n));
      for (uint64_t i = 0; i < *n; ++i) {
        auto item = DictVal(depth + 1);
        if (!item) {
          return std::nullopt;
        }
        items.push_back(std::move(*item));
      }
      return Value(std::move(items));
    }
    case Value::Kind::kMap: {
      auto n = in_->ReadVarint();
      if (!n || !in_->CanHold(*n, 2) || depth == kMaxValueDepth) {
        return std::nullopt;
      }
      ValueMap m;
      m.reserve(static_cast<size_t>(*n));
      for (uint64_t i = 0; i < *n; ++i) {
        auto key = Str();
        if (!key) {
          return std::nullopt;
        }
        auto item = DictVal(depth + 1);
        // Keys are written in increasing order, as in ByteReader::ReadValue.
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
