#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace efind {
namespace {

TEST(LruCacheTest, MissOnEmpty) {
  LruCache<std::string, int> cache(4);
  int v = 0;
  EXPECT_FALSE(cache.Get("a", &v));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.probes(), 1u);
}

TEST(LruCacheTest, PutThenGet) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", 1);
  int v = 0;
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, 1);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  int v = 0;
  ASSERT_TRUE(cache.Get("a", &v));  // "a" is now most recently used.
  cache.Put("c", 3);                // Evicts "b".
  EXPECT_FALSE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_TRUE(cache.Get("c", &v));
}

TEST(LruCacheTest, PutRefreshesRecency) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("a", 10);  // Refresh "a": "b" becomes LRU.
  cache.Put("c", 3);   // Evicts "b".
  int v = 0;
  EXPECT_FALSE(cache.Get("b", &v));
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, 10);
}

TEST(LruCacheTest, CapacityNeverExceeded) {
  LruCache<int, int> cache(8);
  for (int i = 0; i < 100; ++i) {
    cache.Put(i, i);
    EXPECT_LE(cache.size(), 8u);
  }
  // The newest 8 keys must be present.
  int v = 0;
  for (int i = 92; i < 100; ++i) EXPECT_TRUE(cache.Get(i, &v));
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int, int> cache(0);
  cache.Put(1, 1);
  int v = 0;
  EXPECT_FALSE(cache.Get(1, &v));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, MissRatioTracksProbes) {
  LruCache<int, int> cache(4);
  int v = 0;
  cache.Get(1, &v);  // miss
  cache.Put(1, 1);
  cache.Get(1, &v);  // hit
  cache.Get(1, &v);  // hit
  cache.Get(2, &v);  // miss
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 0.5);
}

TEST(LruCacheTest, MissRatioOneWhenUnprobed) {
  LruCache<int, int> cache(4);
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 1.0);
}

TEST(LruCacheTest, ClearResetsEverything) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  int v = 0;
  cache.Get(1, &v);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.probes(), 0u);
  EXPECT_FALSE(cache.Get(1, &v));
}

TEST(LruCacheTest, VectorValues) {
  LruCache<std::string, std::vector<int>> cache(2);
  cache.Put("k", {1, 2, 3});
  std::vector<int> v;
  ASSERT_TRUE(cache.Get("k", &v));
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

// Sequential scan over a domain larger than the cache: every probe must
// miss (classic LRU worst case), which is what makes the paper's Synthetic
// workload cache-hostile.
TEST(LruCacheTest, SequentialScanLargerThanCapacityAlwaysMisses) {
  LruCache<int, int> cache(16);
  int v = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      EXPECT_FALSE(cache.Get(i, &v));
      cache.Put(i, i);
    }
  }
  EXPECT_DOUBLE_EQ(cache.miss_ratio(), 1.0);
}

/// The obvious LRU: a std::list, most recently used first, searched
/// linearly. Slow, but too simple to be wrong; the flat cache must agree
/// with it on every observable after every operation.
template <typename Key, typename Value>
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Get(const Key& key, Value* value) {
    ++probes_;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        entries_.splice(entries_.begin(), entries_, it);
        *value = it->second;
        return true;
      }
    }
    ++misses_;
    return false;
  }

  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        it->second = std::move(value);
        entries_.splice(entries_.begin(), entries_, it);
        return;
      }
    }
    if (entries_.size() >= capacity_) entries_.pop_back();
    entries_.emplace_front(key, std::move(value));
  }

  void Clear() {
    entries_.clear();
    probes_ = 0;
    misses_ = 0;
  }

  size_t size() const { return entries_.size(); }
  uint64_t probes() const { return probes_; }
  uint64_t misses() const { return misses_; }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> entries_;
  uint64_t probes_ = 0;
  uint64_t misses_ = 0;
};

int MakeKey(uint64_t id, int*) { return static_cast<int>(id); }
std::string MakeKey(uint64_t id, std::string*) {
  return "key" + std::to_string(id);
}

/// 100k random Get/Put operations, with a rare Clear, against both caches.
/// Keys come from a domain about twice the capacity, half of them from its
/// low end, so the run mixes hits, refreshes, evictions and backward-shift
/// deletions.
template <typename Key>
void RunDifferential(size_t capacity, uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity));
  LruCache<Key, int> cache(capacity);
  ReferenceLru<Key, int> reference(capacity);
  Rng rng(seed);
  const uint64_t domain = capacity * 2 + 3;
  for (int op = 0; op < 100000; ++op) {
    const uint64_t r = rng.Uniform(1000);
    const uint64_t id =
        r < 500 ? rng.Uniform(capacity / 2 + 1) : rng.Uniform(domain);
    const Key key = MakeKey(id, static_cast<Key*>(nullptr));
    if (rng.Uniform(20000) == 0) {
      cache.Clear();
      reference.Clear();
    } else if (r % 2 == 0) {
      int got = -1, want = -1;
      const bool hit = cache.Get(key, &got);
      ASSERT_EQ(hit, reference.Get(key, &want)) << "op " << op;
      ASSERT_EQ(got, want) << "op " << op;
    } else {
      cache.Put(key, op);
      reference.Put(key, op);
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.probes(), reference.probes()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  }
}

TEST(LruCacheTest, MatchesReferenceLruIntKeys) {
  for (size_t capacity : {0, 1, 2, 3, 64, 1024}) {
    RunDifferential<int>(capacity, 11 + capacity);
  }
}

TEST(LruCacheTest, MatchesReferenceLruStringKeys) {
  for (size_t capacity : {0, 1, 2, 3, 64, 1024}) {
    RunDifferential<std::string>(capacity, 29 + capacity);
  }
}

}  // namespace
}  // namespace efind
