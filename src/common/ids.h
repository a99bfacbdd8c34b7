// Core identifier types shared across the Karousos modules.
//
// All identifiers are 64-bit digests (see src/common/digest.h) so that the
// server and the verifier compute exactly the same ids from the same
// structural information, as required by §5 of the paper ("handlerIDs ...
// correspond across requests").
#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace karousos {

// Globally unique id of a request, assigned by the collector in trace order.
using RequestId = uint64_t;

// Globally unique id of a handler *function* (piece of code), the digest of
// its registered name.
using FunctionId = uint64_t;

// Handler id: digest of (functionID, parent handler id, opnum of the
// activating operation). Unique within a request; equal across requests that
// activate the same handler tree (§5, "Identifying batches").
using HandlerId = uint64_t;

// Globally unique id of a tracked program variable.
using VarId = uint64_t;

// Transaction id: digest of (request id, hid, opnum) of the tx_start.
using TxId = uint64_t;

// Index of an operation within a handler activation (1-based; 0 denotes the
// handler-start pseudo-operation and kOpNumInf the handler-exit one).
using OpNum = uint32_t;

inline constexpr OpNum kOpNumInf = std::numeric_limits<OpNum>::max();

// The request id reserved for the initialization pseudo-handler I (§3): the
// initialization function's execution is treated as a handler activation that
// is the activator of all request handlers.
inline constexpr RequestId kInitRequestId = 0;
inline constexpr HandlerId kInitHandlerId = 1;

// Sentinel for "no handler" (e.g. the parent of a request handler).
inline constexpr HandlerId kNoHandler = 0;

// Coordinate of one operation during execution: the universal key used by the
// advice logs, the OpMap, and the execution graph G.
struct OpRef {
  RequestId rid = 0;
  HandlerId hid = 0;
  OpNum opnum = 0;

  friend bool operator==(const OpRef&, const OpRef&) = default;
  friend auto operator<=>(const OpRef&, const OpRef&) = default;

  bool IsNil() const { return rid == 0 && hid == 0 && opnum == 0; }
  std::string ToString() const;
};

inline constexpr OpRef kNilOp{};

// splitmix64 finalizer (Steele et al.): a full-avalanche 64-bit mixer, so
// sequential rids/opnums — the common case, since the collector assigns rids
// in trace order — spread evenly over power-of-two hash tables. The previous
// xor/shift chain here barely mixed the low bits and produced >4x bucket skew
// on exactly those sequential keys.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Chains splitmix over multiple words: mix each word, fold into the state.
inline constexpr uint64_t HashMix64(uint64_t seed, uint64_t word) {
  return SplitMix64(seed ^ SplitMix64(word));
}

struct OpRefHash {
  size_t operator()(const OpRef& o) const {
    return static_cast<size_t>(HashMix64(HashMix64(SplitMix64(o.rid), o.hid), o.opnum));
  }
};

// Coordinate of one operation within a transaction log: (rid, tid, index).
struct TxOpRef {
  RequestId rid = 0;
  TxId tid = 0;
  uint32_t index = 0;  // 1-based position within the transaction log.

  friend bool operator==(const TxOpRef&, const TxOpRef&) = default;
  friend auto operator<=>(const TxOpRef&, const TxOpRef&) = default;

  bool IsNil() const { return rid == 0 && tid == 0 && index == 0; }
  std::string ToString() const;
};

inline constexpr TxOpRef kNilTxOp{};

struct TxOpRefHash {
  size_t operator()(const TxOpRef& o) const {
    return static_cast<size_t>(HashMix64(HashMix64(SplitMix64(o.rid), o.tid), o.index));
  }
};

// Key of one transaction log: the issuing request and the transaction id.
struct TxnKey {
  RequestId rid = 0;
  TxId tid = 0;

  friend bool operator==(const TxnKey&, const TxnKey&) = default;
  friend auto operator<=>(const TxnKey&, const TxnKey&) = default;
};

// Direct-mapped memo of (name, salt) -> 64-bit digest for the collector's
// hot path, where the same handful of variable / event / function names are
// digested once per operation. A hit validates the cached bytes with a plain
// comparison (cheaper than the FNV multiply chain it replaces), so the cache
// is sound for any argument storage — dynamic strings that reuse an address
// with different contents simply miss. Names longer than kMaxNameLength
// bypass the cache entirely.
class NameDigestCache {
 public:
  static constexpr size_t kSlotCount = 256;  // Power of two.
  static constexpr size_t kMaxNameLength = 40;

  // Cached digest for (name, salt); `compute` supplies the value on a miss.
  template <typename Fn>
  uint64_t Get(std::string_view name, uint64_t salt, Fn&& compute) {
    if (name.size() > kMaxNameLength) {
      return compute();
    }
    Slot& slot = SlotFor(name, salt);
    if (slot.used && slot.salt == salt && slot.length == name.size() &&
        std::char_traits<char>::compare(slot.bytes, name.data(), name.size()) == 0) {
      ++hits_;
      return slot.digest;
    }
    ++misses_;
    uint64_t digest = compute();
    slot.used = true;
    slot.salt = salt;
    slot.length = static_cast<uint32_t>(name.size());
    std::char_traits<char>::copy(slot.bytes, name.data(), name.size());
    slot.digest = digest;
    return digest;
  }

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  struct Slot {
    bool used = false;
    uint32_t length = 0;
    uint64_t salt = 0;
    uint64_t digest = 0;
    char bytes[kMaxNameLength] = {};
  };

  Slot& SlotFor(std::string_view name, uint64_t salt);

  Slot slots_[kSlotCount];
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace karousos

#endif  // SRC_COMMON_IDS_H_
