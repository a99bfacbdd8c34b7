// Compact binary encoding used as the advice wire format.
//
// The paper evaluates advice *size* (Figure 8), so the advice structures in
// src/server/advice.h get a real byte encoding rather than an estimate: the
// server serializes, the verifier deserializes, and the benches report the
// encoded byte counts.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/value.h"

namespace karousos {

// The deepest list/map nesting a Value decoder accepts. Both Value decoders
// (ByteReader::ReadValue and the KSEG dictionary transcoder) recurse once per
// level, so a hostile payload of nested one-element lists would otherwise
// overflow the stack; past this depth they return nullopt like any other
// malformed input. Application values nest a few levels deep.
constexpr size_t kMaxValueDepth = 256;

class ByteWriter {
 public:
  // LEB128-style varint; small ids and opnums dominate the advice, so this
  // is where the encoding wins its compactness.
  void WriteVarint(uint64_t v);
  void WriteFixed64(uint64_t v);
  void WriteFixed32(uint32_t v);
  void WriteByte(uint8_t b) { buf_.push_back(b); }
  void WriteString(std::string_view s);
  void WriteValue(const Value& v);
  void WriteBool(bool b) { WriteByte(b ? 1 : 0); }
  // Raw append, no length prefix — used to splice a pre-encoded body (e.g. a
  // compact KSEG payload assembled after its dictionaries).
  void WriteBytes(const uint8_t* data, size_t size) { buf_.insert(buf_.end(), data, data + size); }

  // Pre-sizes the backing buffer so a burst of writes (one advice component,
  // one epoch payload) appends without reallocating.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  // Rewinds to empty while keeping the allocation, so one writer can be
  // reused across epochs / components instead of reallocating per use.
  void Clear() { buf_.clear(); }
  size_t capacity() const { return buf_.capacity(); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buf) : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : buf_(data), size_(size) {}

  // Each reader returns nullopt on malformed input; the verifier treats a
  // malformed advice stream as server misbehavior (REJECT), never a crash.
  std::optional<uint64_t> ReadVarint();
  std::optional<uint64_t> ReadFixed64();
  std::optional<uint32_t> ReadFixed32();
  std::optional<uint8_t> ReadByte();
  std::optional<std::string> ReadString();
  // Zero-copy variant: the returned view aliases the reader's buffer and is
  // valid only while that buffer outlives the view. Same validation as
  // ReadString (rejects truncated buffers identically).
  std::optional<std::string_view> ReadStringView();
  // Rejects lists/maps nested deeper than kMaxValueDepth.
  std::optional<Value> ReadValue() { return ReadValueAt(0); }
  std::optional<bool> ReadBool();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  // `depth` counts the lists/maps already open around the value.
  std::optional<Value> ReadValueAt(size_t depth);

  const uint8_t* buf_;
  size_t size_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Used by the epoch segment
// container to detect payload corruption; a bad checksum is a diagnostic,
// never a crash or a silent accept.
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(const std::vector<uint8_t>& buf) { return Crc32(buf.data(), buf.size()); }

}  // namespace karousos

#endif  // SRC_COMMON_SERDE_H_
