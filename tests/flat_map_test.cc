#include "src/common/flat_map.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/ids.h"

namespace karousos {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<uint64_t, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.emplace(1, "one").second);
  EXPECT_TRUE(m.emplace(2, "two").second);
  EXPECT_FALSE(m.emplace(1, "uno").second);  // Duplicate keeps the first.
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), m.end());
  EXPECT_EQ(m.find(1)->second, "one");
  EXPECT_EQ(m.find(3), m.end());
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), m.end());
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, SubscriptInsertsDefault) {
  FlatMap<uint64_t, uint64_t> m;
  m[5] += 3;
  m[5] += 4;
  EXPECT_EQ(m[5], 7u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, SurvivesRehashWithManyKeys) {
  FlatMap<uint64_t, uint64_t> m;
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) {
    m.emplace(i, i * 3);
  }
  EXPECT_EQ(m.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    auto it = m.find(i);
    ASSERT_NE(it, m.end()) << i;
    EXPECT_EQ(it->second, i * 3);
  }
  EXPECT_FALSE(m.contains(kN + 1));
}

TEST(FlatMapTest, EraseKeepsRemainderReachable) {
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 1000; ++i) {
    m.emplace(i, i);
  }
  // Backward-shift deletion: removing every even key must leave every odd
  // key findable (tombstone-free tables are where naive deletion breaks).
  for (uint64_t i = 0; i < 1000; i += 2) {
    EXPECT_TRUE(m.erase(i));
  }
  EXPECT_EQ(m.size(), 500u);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(m.contains(i), i % 2 == 1) << i;
  }
}

TEST(FlatMapTest, IterationVisitsEachEntryOnce) {
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 777; ++i) {
    m.emplace(i * 17, i);
  }
  std::map<uint64_t, uint64_t> seen;
  for (const auto& [k, v] : m) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key " << k;
  }
  EXPECT_EQ(seen.size(), 777u);
  for (uint64_t i = 0; i < 777; ++i) {
    EXPECT_EQ(seen.at(i * 17), i);
  }
}

// The determinism contract the verifier relies on: the *content* of the map
// is independent of capacity history, so code that sorts keys explicitly gets
// identical results no matter how the table grew.
TEST(FlatMapTest, ContentIndependentOfReserveHistory) {
  FlatMap<uint64_t, uint64_t> grown;
  FlatMap<uint64_t, uint64_t> reserved;
  reserved.reserve(4096);
  for (uint64_t i = 0; i < 3000; ++i) {
    grown.emplace(i * 31, i);
    reserved.emplace(i * 31, i);
  }
  std::vector<std::pair<uint64_t, uint64_t>> a(grown.begin(), grown.end());
  std::vector<std::pair<uint64_t, uint64_t>> b(reserved.begin(), reserved.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// The default hasher, counting its calls.
struct CountingHash {
  static inline size_t calls = 0;
  size_t operator()(uint64_t k) const {
    ++calls;
    return FlatHash<uint64_t>{}(k);
  }
};

// An insert hashes its key once: the probe for a present key and the
// placement of a new one share the hash. Only a growing rehash hashes again.
TEST(FlatMapTest, InsertHashesNewKeyOnce) {
  FlatMap<uint64_t, uint64_t, CountingHash> m;
  m.reserve(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    CountingHash::calls = 0;
    EXPECT_TRUE(m.emplace(i * 7, i).second);
    EXPECT_EQ(CountingHash::calls, 1u) << "insert of key " << i * 7;
  }
  CountingHash::calls = 0;
  EXPECT_FALSE(m.emplace(7, 0).second);
  m[14] = 2;
  EXPECT_EQ(CountingHash::calls, 2u);
  EXPECT_EQ(m.find(7)->second, 1u);
  EXPECT_EQ(m.find(14)->second, 2u);
}

TEST(FlatSetTest, InsertContainsErase) {
  FlatSet<uint64_t> s;
  EXPECT_TRUE(s.insert(10).second);
  EXPECT_FALSE(s.insert(10).second);
  EXPECT_TRUE(s.contains(10));
  EXPECT_EQ(s.count(11), 0u);
  std::vector<uint64_t> more = {11, 12, 13};
  s.insert(more.begin(), more.end());
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.erase(12));
  EXPECT_FALSE(s.contains(12));
}

TEST(FlatSetTest, WorksWithOpRefKeys) {
  FlatSet<OpRef> s;
  for (uint64_t rid = 1; rid <= 100; ++rid) {
    for (OpNum op = 1; op <= 10; ++op) {
      EXPECT_TRUE(s.insert(OpRef{rid, 42, op}).second);
    }
  }
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_TRUE(s.contains(OpRef{7, 42, 3}));
  EXPECT_FALSE(s.contains(OpRef{7, 43, 3}));
}

// Regression for the weak pre-splitmix hash: sequential rids/opnums — the
// distribution the collector actually produces — must spread over a
// power-of-two table with no badly overloaded bucket.
template <typename Key, typename Hash>
double MaxBucketSkew(const std::vector<Key>& keys, size_t buckets) {
  std::vector<size_t> load(buckets, 0);
  Hash h;
  for (const Key& k : keys) {
    ++load[h(k) & (buckets - 1)];
  }
  size_t max_load = *std::max_element(load.begin(), load.end());
  double expected = static_cast<double>(keys.size()) / static_cast<double>(buckets);
  return static_cast<double>(max_load) / expected;
}

TEST(HashDistributionTest, SequentialOpRefsSpreadEvenly) {
  std::vector<OpRef> keys;
  for (uint64_t rid = 1; rid <= 512; ++rid) {
    for (OpNum op = 1; op <= 32; ++op) {
      keys.push_back(OpRef{rid, 0x9000 + (rid % 7), op});
    }
  }
  EXPECT_LT((MaxBucketSkew<OpRef, OpRefHash>(keys, 4096)), 4.0);
}

TEST(HashDistributionTest, SequentialTxOpRefsSpreadEvenly) {
  std::vector<TxOpRef> keys;
  for (uint64_t rid = 1; rid <= 1024; ++rid) {
    for (uint32_t idx = 1; idx <= 16; ++idx) {
      keys.push_back(TxOpRef{rid, rid * 2 + 1, idx});
    }
  }
  EXPECT_LT((MaxBucketSkew<TxOpRef, TxOpRefHash>(keys, 4096)), 4.0);
}

TEST(HashDistributionTest, SequentialIdsSpreadEvenly) {
  std::vector<uint64_t> keys(16384);
  for (uint64_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;  // The pathological input for identity-style hashes.
  }
  EXPECT_LT((MaxBucketSkew<uint64_t, FlatHash<uint64_t>>(keys, 2048)), 4.0);
}

}  // namespace
}  // namespace karousos
