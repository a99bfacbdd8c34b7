// Open-addressing robin-hood hash map/set for the audit hot path.
//
// The verifier's per-operation bookkeeping is lookup-dominated: every
// re-executed operation probes the OpMap, the opcount table, the variable
// dictionaries, and the advice indices. Node-based std::map/std::set pay a
// pointer chase (and an allocation) per entry; FlatMap keeps entries inline
// in one backing array with robin-hood displacement (probe distances stay
// short and variance-free even at high load) and backward-shift deletion (no
// tombstones). Keys and values must be default-constructible and movable.
//
// Determinism contract: iteration order depends on insertion order and
// capacity history — it is stable for a fixed insertion sequence but is NOT
// sorted. Verifier code that needs a canonical order (graph edge emission,
// merge of parallel group deltas) must sort keys explicitly; see
// DESIGN.md "Audit hot-path memory layout".
#ifndef SRC_COMMON_FLAT_MAP_H_
#define SRC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/ids.h"

namespace karousos {

// Default hasher: splitmix64 finalizing (src/common/ids.h) so sequential
// ids — the common key distribution — avalanche over power-of-two tables.
// Specializations below cover the id types; add one next to any new key type.
template <typename K>
struct FlatHash {
  size_t operator()(const K& k) const { return static_cast<size_t>(SplitMix64(k)); }
};

template <>
struct FlatHash<OpRef> : OpRefHash {};

template <>
struct FlatHash<TxOpRef> : TxOpRefHash {};

template <>
struct FlatHash<TxnKey> {
  size_t operator()(const TxnKey& k) const {
    return static_cast<size_t>(HashMix64(SplitMix64(k.rid), k.tid));
  }
};

template <typename A, typename B>
struct FlatHash<std::pair<A, B>> {
  size_t operator()(const std::pair<A, B>& p) const {
    return static_cast<size_t>(HashMix64(FlatHash<A>{}(p.first), FlatHash<B>{}(p.second)));
  }
};

template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap {
 public:
  using Entry = std::pair<Key, T>;

  FlatMap() = default;

  // --- iteration (skips empty slots; unspecified but insertion-stable order)
  template <bool Const>
  class Iter {
   public:
    using MapPtr = std::conditional_t<Const, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<Const, const Entry&, Entry&>;
    using Ptr = std::conditional_t<Const, const Entry*, Entry*>;
    // std::iterator_traits interface (range constructors and algorithms).
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = Ptr;
    using reference = Ref;

    Iter() = default;
    Iter(MapPtr map, size_t idx) : map_(map), idx_(idx) { SkipEmpty(); }
    // const_iterator from iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : map_(other.map_), idx_(other.idx_) {}  // NOLINT

    Ref operator*() const { return map_->slots_[idx_]; }
    Ptr operator->() const { return &map_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      SkipEmpty();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.idx_ == b.idx_; }
    friend bool operator!=(const Iter& a, const Iter& b) { return a.idx_ != b.idx_; }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;

    void SkipEmpty() {
      while (idx_ < map_->meta_.size() && map_->meta_[idx_] == 0) {
        ++idx_;
      }
    }
    MapPtr map_ = nullptr;
    size_t idx_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, meta_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, meta_.size()); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    meta_.clear();
    size_ = 0;
  }

  // Ensures capacity for n entries without rehashing.
  void reserve(size_t n) {
    size_t needed = CapacityFor(n);
    if (needed > meta_.size()) {
      Rehash(needed);
    }
  }

  iterator find(const Key& key) { return iterator(this, FindSlot(key)); }
  const_iterator find(const Key& key) const { return const_iterator(this, FindSlot(key)); }
  size_t count(const Key& key) const { return FindSlot(key) == meta_.size() ? 0 : 1; }
  bool contains(const Key& key) const { return count(key) != 0; }

  T& operator[](const Key& key) { return slots_[InsertSlot(key, T()).first].second; }

  // Inserts (key, value) if absent; returns {iterator, inserted}.
  std::pair<iterator, bool> emplace(const Key& key, T value) {
    auto [idx, inserted] = InsertSlot(key, std::move(value));
    return {iterator(this, idx), inserted};
  }
  std::pair<iterator, bool> insert(Entry entry) {
    return emplace(entry.first, std::move(entry.second));
  }

  // Backward-shift deletion: no tombstones, so probe distances never decay.
  bool erase(const Key& key) {
    size_t idx = FindSlot(key);
    if (idx == meta_.size()) {
      return false;
    }
    size_t mask = meta_.size() - 1;
    size_t next = (idx + 1) & mask;
    while (meta_[next] > 1) {
      slots_[idx] = std::move(slots_[next]);
      meta_[idx] = static_cast<uint16_t>(meta_[next] - 1);
      idx = next;
      next = (next + 1) & mask;
    }
    slots_[idx] = Entry();
    meta_[idx] = 0;
    --size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr uint16_t kMaxProbe = 0xFFF0;

  // Smallest power-of-two capacity keeping load factor under 7/8.
  static size_t CapacityFor(size_t n) {
    size_t cap = kMinCapacity;
    while (cap - cap / 8 < n) {
      cap <<= 1;
    }
    return cap;
  }

  // Index of the key's slot, or meta_.size() when absent.
  size_t FindSlot(const Key& key) const {
    return size_ == 0 ? meta_.size() : FindSlot(key, Hash{}(key));
  }

  // The same, given the key's hash: a non-empty table.
  size_t FindSlot(const Key& key, size_t hash) const {
    size_t mask = meta_.size() - 1;
    size_t idx = hash & mask;
    uint16_t dist = 1;
    while (meta_[idx] != 0) {
      // Robin-hood invariant: a present key is never further from home than
      // any entry it probes past, so falling below ends the search.
      if (meta_[idx] < dist) {
        break;
      }
      if (slots_[idx].first == key) {
        return idx;
      }
      idx = (idx + 1) & mask;
      ++dist;
    }
    return meta_.size();
  }

  // Finds or inserts; returns {slot, inserted}. The key is hashed once: the
  // hash finds it and, after any rehash, gives its home slot.
  std::pair<size_t, bool> InsertSlot(const Key& key, T value) {
    const size_t hash = Hash{}(key);
    if (size_ != 0) {
      size_t existing = FindSlot(key, hash);
      if (existing != meta_.size()) {
        return {existing, false};
      }
    }
    if (meta_.empty() || size_ + 1 > meta_.size() - meta_.size() / 8) {
      Rehash(meta_.size() == 0 ? kMinCapacity : meta_.size() * 2);
    }
    size_t slot = PlaceNew(Entry(key, std::move(value)), hash);
    ++size_;
    return {slot, true};
  }

  // Robin-hood placement of a key known to be absent from the table, given
  // its hash. Returns the slot the key comes to rest in: the first one it
  // takes, since the displacement walk after that moves only the entries it
  // pushed out.
  size_t PlaceNew(Entry entry, size_t hash) {
    const size_t none = meta_.size();
    size_t mask = meta_.size() - 1;
    size_t idx = hash & mask;
    uint16_t dist = 1;
    size_t rest = none;
    while (true) {
      if (meta_[idx] == 0) {
        slots_[idx] = std::move(entry);
        meta_[idx] = dist;
        return rest == none ? idx : rest;
      }
      if (meta_[idx] < dist) {
        std::swap(slots_[idx], entry);
        std::swap(meta_[idx], dist);
        if (rest == none) {
          rest = idx;
        }
      }
      idx = (idx + 1) & mask;
      ++dist;
      if (dist >= kMaxProbe) {
        // Unreachable with a mixing hash; grow rather than overflow meta.
        Key key = rest == none ? entry.first : slots_[rest].first;
        Rehash(meta_.size() * 2, &entry);
        return FindSlot(key);
      }
    }
  }

  void Rehash(size_t capacity, Entry* pending = nullptr) {
    std::vector<Entry> old_slots = std::move(slots_);
    std::vector<uint16_t> old_meta = std::move(meta_);
    slots_.clear();
    slots_.resize(capacity);
    meta_.assign(capacity, 0);
    for (size_t i = 0; i < old_meta.size(); ++i) {
      if (old_meta[i] != 0) {
        // Hashed before the call: the argument's move may empty the key first.
        const size_t hash = Hash{}(old_slots[i].first);
        PlaceNew(std::move(old_slots[i]), hash);
      }
    }
    if (pending != nullptr) {
      const size_t hash = Hash{}(pending->first);
      PlaceNew(std::move(*pending), hash);
    }
  }

  std::vector<Entry> slots_;
  // 0 = empty; otherwise probe distance + 1 (1 = sitting at its home slot).
  std::vector<uint16_t> meta_;
  size_t size_ = 0;
};

// The map's entries in ascending key order. FlatMap iterates in insertion
// order, so a canonical encoding (the checkpoint, the pre-screen state) walks
// this instead.
template <typename Key, typename T, typename Hash>
std::vector<const std::pair<Key, T>*> SortedEntries(const FlatMap<Key, T, Hash>& map) {
  std::vector<const std::pair<Key, T>*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

// Hash set over the same table: FlatMap with an empty payload and key-only
// surface (insert returns whether the key was new, matching std::set usage).
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet {
  struct Unit {};

 public:
  class const_iterator {
   public:
    const_iterator() = default;
    explicit const_iterator(typename FlatMap<Key, Unit, Hash>::const_iterator it) : it_(it) {}
    const Key& operator*() const { return it_->first; }
    const Key* operator->() const { return &it_->first; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.it_ != b.it_;
    }

   private:
    typename FlatMap<Key, Unit, Hash>::const_iterator it_;
  };

  const_iterator begin() const { return const_iterator(map_.begin()); }
  const_iterator end() const { return const_iterator(map_.end()); }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(size_t n) { map_.reserve(n); }

  // Returns {ignored, inserted}, shaped like std::set::insert for the common
  // `.second` idiom.
  std::pair<const_iterator, bool> insert(const Key& key) {
    auto [it, inserted] = map_.emplace(key, Unit{});
    return {const_iterator(it), inserted};
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) {
      map_.emplace(*first, Unit{});
    }
  }
  size_t count(const Key& key) const { return map_.count(key); }
  bool contains(const Key& key) const { return map_.contains(key); }
  bool erase(const Key& key) { return map_.erase(key); }

 private:
  FlatMap<Key, Unit, Hash> map_;
};

}  // namespace karousos

#endif  // SRC_COMMON_FLAT_MAP_H_
