// Storage-class codecs for KSEG frame payloads.
//
// Advice bytes are the audit's dominant cost at production traffic (the paper
// reports advice size as a headline metric), and most of those bytes are
// high-entropy 64-bit digests and repeated keys. Three composable stages, each
// behind its own bit of a segment frame's flags byte:
//
//   * kFrameFlagLanes — columnar delta+varint coding for the monotone and
//     near-monotone integer lanes (request ids, opnums, opcounts, tx indices):
//     first value + zigzag deltas instead of absolute varints/fixed64s.
//   * kFrameFlagDict  — per-segment dictionaries: every distinct 64-bit id
//     digest (handler/var/tx/function/event/tag) and every distinct string
//     (app keys, value strings, map keys) is written once, occurrences become
//     small varint refs. The symbol-table idiom; LabelStore already makes
//     these enumerable on the record side.
//   * kFrameFlagBlock — an LZ4-style block compressor (self-contained greedy
//     LZ77 with hash-chain matching, no external deps) applied to the whole
//     frame payload last, undone first on decode.
//
// This header owns the primitives, the field coders through which the one
// advice/trace/import grammar applies lanes and dict (below), and the block
// codec. Every decoder here returns nullopt on malformed input — a corrupt
// compressed frame is indistinguishable from server misbehavior and must
// reject cleanly, never crash or over-allocate.
#ifndef SRC_COMMON_KCODEC_H_
#define SRC_COMMON_KCODEC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/serde.h"

namespace karousos {

// Frame-flag bits (one flags byte per segment frame, src/common/segment.h).
// Readers reject any bit outside kFrameFlagsKnownMask.
inline constexpr uint8_t kFrameFlagLanes = 0x01;
inline constexpr uint8_t kFrameFlagDict = 0x02;
inline constexpr uint8_t kFrameFlagBlock = 0x04;
inline constexpr uint8_t kFrameFlagsKnownMask =
    kFrameFlagLanes | kFrameFlagDict | kFrameFlagBlock;

// Which stages a writer applies / a reader must undo. The block stage is
// advisory on encode: a frame whose payload does not shrink is stored raw
// with the flag dropped, so decode cost is only ever paid where it won.
struct KsegCompression {
  bool lanes = false;
  bool dict = false;
  bool block = false;

  bool any() const { return lanes || dict || block; }
  uint8_t Flags() const {
    return static_cast<uint8_t>((lanes ? kFrameFlagLanes : 0) | (dict ? kFrameFlagDict : 0) |
                                (block ? kFrameFlagBlock : 0));
  }
  static KsegCompression FromFlags(uint8_t flags) {
    KsegCompression c;
    c.lanes = (flags & kFrameFlagLanes) != 0;
    c.dict = (flags & kFrameFlagDict) != 0;
    c.block = (flags & kFrameFlagBlock) != 0;
    return c;
  }
  static KsegCompression All() { return KsegCompression{true, true, true}; }
};

// --- Zigzag + delta lanes ----------------------------------------------------

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t z) {
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

// One value of a delta lane: v relative to *prev as a zigzag varint; *prev
// advances to v. Monotone lanes encode as a run of tiny positive deltas;
// occasional regressions stay cheap instead of breaking the lane.
inline void WriteDelta(ByteWriter* out, uint64_t v, uint64_t* prev) {
  out->WriteVarint(ZigzagEncode(static_cast<int64_t>(v - *prev)));
  *prev = v;
}
inline std::optional<uint64_t> ReadDelta(ByteReader* in, uint64_t* prev) {
  auto z = in->ReadVarint();
  if (!z) {
    return std::nullopt;
  }
  uint64_t v = *prev + static_cast<uint64_t>(ZigzagDecode(*z));
  *prev = v;
  return v;
}

// --- Per-segment dictionaries ------------------------------------------------

// Interns 64-bit id digests in first-use order. FieldEncoder writes the
// body against refs first, then serializes the table ahead of it.
class U64DictBuilder {
 public:
  uint64_t Ref(uint64_t v) {
    auto [it, inserted] = index_.emplace(v, order_.size());
    if (inserted) {
      order_.push_back(v);
    }
    return it->second;
  }
  void Serialize(ByteWriter* out) const {
    out->WriteVarint(order_.size());
    for (uint64_t v : order_) {
      out->WriteFixed64(v);
    }
  }
  size_t size() const { return order_.size(); }

 private:
  std::unordered_map<uint64_t, uint64_t> index_;
  std::vector<uint64_t> order_;
};

class StringDictBuilder {
 public:
  // A lookup copies nothing; a new string is copied once, into order_.
  uint64_t Ref(std::string_view s) {
    auto it = index_.find(s);
    if (it != index_.end()) {
      return it->second;
    }
    uint64_t id = order_.size();
    order_.emplace_back(s);
    index_.emplace(order_.back(), id);
    return id;
  }
  void Serialize(ByteWriter* out) const {
    out->WriteVarint(order_.size());
    for (const std::string& s : order_) {
      out->WriteString(s);
    }
  }
  size_t size() const { return order_.size(); }

 private:
  // The keys view the strings in order_, which a deque never moves.
  std::unordered_map<std::string_view, uint64_t> index_;
  std::deque<std::string> order_;
};

// Dictionary tables, decode side. Both guard the declared count against the
// bytes actually remaining, so a truncated dictionary (or a forged huge
// count) rejects before any allocation is sized from attacker input.
std::optional<std::vector<uint64_t>> ReadU64Dict(ByteReader* in);
// The string views alias the reader's buffer, which must outlive them.
std::optional<std::vector<std::string_view>> ReadStringDict(ByteReader* in);

// --- Field coders ------------------------------------------------------------
//
// The advice, trace and import grammar (Advice::Encode/Decode in
// src/server/advice.h, EncodeTraceEvents/DecodeTraceEvents in
// src/trace/trace.h, ContinuityImports::Encode/Decode in
// src/server/rollover.h) is written once, one coder call per field. Each
// field kind has a plain coding and, under its stage, a compact one:
//
//   Id      fixed64           dict: varint reference into the id table
//   Lane    varint            lanes: zigzag delta against the lane's last value
//   RelRid  varint            lanes: zigzag delta against an anchor rid
//   Str     length + bytes    dict: varint reference into the string table
//   Val     serde Value       dict: its strings and map keys as references
//   Varint, Byte, Bool        plain under every stage
//
// With every stage off each coder writes exactly ByteWriter's plain encoding
// and there are no tables, so the monolithic advice and trace files and a
// flags-0 KSEG frame are this grammar with its stages off.

class FieldEncoder {
 public:
  // Appends the unit to *out. Under the dict stage the body is written to a
  // scratch buffer until Finish puts the tables (first-use order) ahead of
  // it; otherwise straight to *out.
  FieldEncoder(const KsegCompression& c, ByteWriter* out)
      : lanes_(c.lanes), out_(out), body_(c.dict ? &scratch_ : out), start_(body_->size()) {
    if (c.dict) {
      tables_ = std::make_unique<Tables>();
    }
  }
  FieldEncoder(const FieldEncoder&) = delete;
  FieldEncoder& operator=(const FieldEncoder&) = delete;

  void Id(uint64_t v) {
    if (tables_) {
      body_->WriteVarint(tables_->ids.Ref(v));
    } else {
      body_->WriteFixed64(v);
    }
  }
  void Lane(uint64_t v, uint64_t* prev) {
    if (lanes_) {
      WriteDelta(body_, v, prev);
    } else {
      body_->WriteVarint(v);
    }
  }
  // A cross-reference rid (a var-log prec, a GET's dictating PUT), coded
  // relative to the coordinate that refers to it, where it clusters.
  void RelRid(uint64_t v, uint64_t anchor) { Lane(v, &anchor); }
  void Str(std::string_view s) {
    if (tables_) {
      body_->WriteVarint(tables_->strs.Ref(s));
    } else {
      body_->WriteString(s);
    }
  }
  void Val(const Value& v) {
    if (tables_) {
      DictVal(v);
    } else {
      body_->WriteValue(v);
    }
  }
  void Varint(uint64_t v) { body_->WriteVarint(v); }
  void Byte(uint8_t b) { body_->WriteByte(b); }
  void Bool(bool b) { body_->WriteBool(b); }

  // The body written so far: the unit's size with the dict stage off, a
  // lower bound on it with the stage on.
  size_t BodyBytes() const { return body_->size() - start_; }
  // Ends the unit: writes the tables and then the body (dict stage only).
  void Finish();

 private:
  struct Tables {
    U64DictBuilder ids;
    StringDictBuilder strs;
  };
  void DictVal(const Value& v);

  bool lanes_;
  ByteWriter* out_;
  ByteWriter scratch_;
  ByteWriter* body_;
  size_t start_;
  std::unique_ptr<Tables> tables_;  // Dict stage only.
};

// The inverse. Every accessor returns nullopt on malformed input; the
// grammar bails on the first one.
class FieldDecoder {
 public:
  // Reads the unit from *in's position on; *in's buffer must outlive the
  // decoder and the string views it hands out.
  FieldDecoder(ByteReader* in, const KsegCompression& c)
      : in_(in), lanes_(c.lanes), dict_(c.dict), unit_bytes_(in->remaining()) {}

  // Reads the tables (dict stage); false when they are malformed.
  bool Init();

  std::optional<uint64_t> Id() {
    if (!dict_) {
      return in_->ReadFixed64();
    }
    auto ref = in_->ReadVarint();
    if (!ref || *ref >= ids_.size()) {
      return std::nullopt;
    }
    return ids_[static_cast<size_t>(*ref)];
  }
  std::optional<uint64_t> Lane(uint64_t* prev) {
    return lanes_ ? ReadDelta(in_, prev) : in_->ReadVarint();
  }
  std::optional<uint64_t> RelRid(uint64_t anchor) { return Lane(&anchor); }
  std::optional<std::string_view> StrView() {
    if (!dict_) {
      return in_->ReadStringView();
    }
    auto ref = in_->ReadVarint();
    if (!ref || *ref >= strs_.size()) {
      return std::nullopt;
    }
    return strs_[static_cast<size_t>(*ref)];
  }
  std::optional<std::string> Str() {
    auto s = StrView();
    if (!s) {
      return std::nullopt;
    }
    return std::string(*s);
  }
  // `depth` counts the lists/maps already open around the value; nesting
  // past kMaxValueDepth is malformed under every stage.
  std::optional<Value> Val(size_t depth = 0) {
    return dict_ ? DictVal(depth) : in_->ReadValueAt(depth);
  }
  std::optional<uint64_t> Varint() { return in_->ReadVarint(); }
  std::optional<uint8_t> Byte() { return in_->ReadByte(); }
  std::optional<bool> Bool() { return in_->ReadBool(); }

  // The fewest bytes an Id field takes: a fixed64, or a one-byte reference.
  // Every other field takes at least one byte, so a count guard adds these
  // to its entry's field count.
  size_t IdBytes() const { return dict_ ? 1 : 8; }
  bool CanHold(uint64_t count, size_t min_bytes) const { return in_->CanHold(count, min_bytes); }
  size_t remaining() const { return in_->remaining(); }
  bool AtEnd() const { return in_->AtEnd(); }
  // The bytes from the unit's start, tables included, to the input's end.
  size_t unit_bytes() const { return unit_bytes_; }

 private:
  std::optional<Value> DictVal(size_t depth);

  ByteReader* in_;
  bool lanes_;
  bool dict_;
  size_t unit_bytes_;
  std::vector<uint64_t> ids_;
  std::vector<std::string_view> strs_;  // Views into the input.
};

// --- LZ4-style block codec ---------------------------------------------------

// Appends the compressed form of [data, data+size) to *out. Sequence format
// (LZ4 block idiom): token byte with literal length in the high nibble and
// (match length - 4) in the low nibble, 15 meaning "extended by 255-run
// bytes"; literal bytes; 2-byte little-endian match offset (1..65535). The
// final sequence is literals-only (match nibble 0, no offset). Greedy matcher
// over a hash-chain table, bounded chain depth — compression is one pass.
void BlockCompress(const uint8_t* data, size_t size, std::vector<uint8_t>* out);

// Decompresses exactly `decoded_size` bytes or returns nullopt. Every read
// and match copy is bounds-checked; overlapping matches copy byte-by-byte.
std::optional<std::vector<uint8_t>> BlockDecompress(const uint8_t* data, size_t size,
                                                    size_t decoded_size);

// Frame-level wrapper: [varint decoded size | sequences]. Encode returns the
// stored bytes; decode validates the declared size against a structural
// expansion bound before allocating and requires the decoded length to match
// the declaration exactly (a mismatch is a rejection, not a truncation).
std::vector<uint8_t> BlockFrameEncode(const uint8_t* data, size_t size);
inline std::vector<uint8_t> BlockFrameEncode(const std::vector<uint8_t>& payload) {
  return BlockFrameEncode(payload.data(), payload.size());
}
std::optional<std::vector<uint8_t>> BlockFrameDecode(const uint8_t* data, size_t size);
inline std::optional<std::vector<uint8_t>> BlockFrameDecode(const std::vector<uint8_t>& stored) {
  return BlockFrameDecode(stored.data(), stored.size());
}

}  // namespace karousos

#endif  // SRC_COMMON_KCODEC_H_
