// Compact binary encoding used as the advice wire format and for the
// verifier state that crosses a process boundary.
//
// The paper evaluates advice *size* (Figure 8), so the advice structures in
// src/server/advice.h get a real byte encoding rather than an estimate: the
// server serializes, the verifier deserializes, and the benches report the
// encoded byte counts.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"

namespace karousos {

// The deepest list/map nesting a Value decoder accepts. Both Value decoders
// (ByteReader::ReadValue and the dict stage's FieldDecoder) recurse once per
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
  explicit ByteReader(std::span<const uint8_t> buf) : buf_(buf.data()), size_(buf.size()) {}
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
  // `depth` counts the lists/maps already open around the value.
  std::optional<Value> ReadValueAt(size_t depth);
  std::optional<bool> ReadBool();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  // True when `count` elements of at least `min_bytes` encoded bytes each fit
  // in what is left. Count-prefixed decoders check this before they reserve,
  // so a hostile count reserves at most one element per `min_bytes` bytes.
  bool CanHold(uint64_t count, size_t min_bytes) const {
    return count <= remaining() / min_bytes;
  }

 private:
  const uint8_t* buf_;
  size_t size_;
  size_t pos_ = 0;
};

// The id coordinates every advice and state codec shares: rid as a varint,
// hid/tid as fixed64 (they are digests), opnum/index as a varint.
void SerializeOpRef(const OpRef& op, ByteWriter* out);
std::optional<OpRef> DeserializeOpRef(ByteReader* in);
void SerializeTxOpRef(const TxOpRef& op, ByteWriter* out);
std::optional<TxOpRef> DeserializeTxOpRef(ByteReader* in);
void SerializeTxnKey(const TxnKey& txn, ByteWriter* out);
std::optional<TxnKey> DeserializeTxnKey(ByteReader* in);

// A varint field held in 32 bits (an opnum, an opcount, a TxOpRef index):
// nullopt when it is missing or does not fit, so a decoder refuses a wide
// value as malformed instead of truncating it.
inline std::optional<uint32_t> Narrow32(std::optional<uint64_t> v) {
  if (!v || *v > UINT32_MAX) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(*v);
}

// Smallest encodings of the coordinates above, for count bounds.
inline constexpr size_t kMinOpRefBytes = 10;    // rid 1 + hid 8 + opnum 1.
inline constexpr size_t kMinTxOpRefBytes = 10;  // rid 1 + tid 8 + index 1.
inline constexpr size_t kMinTxnKeyBytes = 9;    // rid 1 + tid 8.

// The one failure-latching reader for the verifier's carried state: the
// checkpoint, the pre-screen state, the shard boundary, the shard artifact
// and the continuity imports all decode through it. Once any field fails to
// parse, every getter returns a default and ok() stays false, so a decoder
// reads linearly and checks once at the end. Every count is bounded by the
// element's minimum encoded size (ByteReader::CanHold), so a hostile count
// fails before anything is sized from it.
class StateReader {
 public:
  explicit StateReader(ByteReader* in) : in_(in) {}

  uint64_t V() { return Get(in_->ReadVarint()); }
  uint64_t F64() { return Get(in_->ReadFixed64()); }
  uint8_t B() { return Get(in_->ReadByte()); }
  bool Bool() { return Get(in_->ReadBool()); }
  std::string S() { return Get(in_->ReadString()); }
  Value Val() { return Get(in_->ReadValue()); }
  OpRef Op() { return Get(DeserializeOpRef(in_)); }
  TxOpRef Tx() { return Get(DeserializeTxOpRef(in_)); }
  TxnKey Txn() { return Get(DeserializeTxnKey(in_)); }
  // A byte naming one of the enumerators 0..max; a larger byte fails.
  uint8_t Enum(uint8_t max) {
    uint8_t b = B();
    if (b > max) {
      ok_ = false;
    }
    return ok_ ? b : 0;
  }

  // The count of a sequence whose elements encode to at least `min_bytes`
  // each. A count the remaining bytes cannot hold fails; after any failure
  // the count is 0, so the loop it drives ends.
  size_t Count(size_t min_bytes) {
    uint64_t n = V();
    if (!ok_ || !in_->CanHold(n, min_bytes)) {
      ok_ = false;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  // Runs read_one() once per element of a counted sequence, stopping at the
  // first failure.
  template <typename F>
  void Each(size_t min_bytes, F&& read_one) {
    for (size_t n = Count(min_bytes); n > 0 && ok_; --n) {
      read_one();
    }
  }

  // Appends a counted sequence to `out`, reserving once: the count is
  // already bounded, so a forged one reserves at most one element per
  // `min_bytes` input bytes and the vector never regrows.
  template <typename T, typename F>
  void List(std::vector<T>* out, size_t min_bytes, F&& read_one) {
    size_t n = Count(min_bytes);
    out->reserve(out->size() + n);
    for (; n > 0 && ok_; --n) {
      out->push_back(read_one());
    }
  }

  void Fail() { ok_ = false; }
  bool ok() const { return ok_; }
  // Every field parsed and the payload is consumed to its last byte.
  bool Done() const { return ok_ && in_->AtEnd(); }

 private:
  template <typename T>
  T Get(std::optional<T> v) {
    if (!v || !ok_) {
      ok_ = false;
      return T{};
    }
    return std::move(*v);
  }

  ByteReader* in_;
  bool ok_ = true;
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Used by the epoch segment
// container to detect payload corruption; a bad checksum is a diagnostic,
// never a crash or a silent accept.
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(const std::vector<uint8_t>& buf) { return Crc32(buf.data(), buf.size()); }

}  // namespace karousos

#endif  // SRC_COMMON_SERDE_H_
