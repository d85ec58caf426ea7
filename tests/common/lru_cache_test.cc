// LruCache: the bounded least-recently-used map behind the prepared
// enforcement memo, the compiled policy tables and the SQL plan cache.
// LruCacheConcurrencyTest runs under TSan in the sanitizer CI job (its
// name matches the Concurrency filter).

#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace wfrm {
namespace {

struct Versioned {
  int value = 0;
  uint64_t version = 0;
};

using Cache = LruCache<Versioned>;

Cache::Value Make(int value, uint64_t version = 1) {
  return std::make_shared<const Versioned>(Versioned{value, version});
}

auto AtVersion(uint64_t version) {
  return [version](const Versioned& v) { return v.version == version; };
}

std::string Key(int i) { return std::to_string(i); }

// Regression: a bound enforced only against stale entries let a cache
// filled at a single version grow without limit.
TEST(LruCacheTest, NeverExceedsCapacityWhenEveryEntryIsFresh) {
  constexpr size_t kCap = 16;
  Cache cache(kCap);
  for (int i = 0; i < static_cast<int>(kCap) * 2; ++i) {
    cache.Put(Key(i), Make(i));
    EXPECT_LE(cache.size(), kCap) << "after insert " << i;
  }
  EXPECT_EQ(cache.size(), kCap);

  // Nothing was touched, so the first half was evicted.
  CacheLookup outcome;
  EXPECT_EQ(cache.Get(Key(0), AtVersion(1), &outcome), nullptr);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  auto newest = cache.Get(Key(31), AtVersion(1), &outcome);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->value, 31);
  EXPECT_EQ(outcome, CacheLookup::kHit);
}

TEST(LruCacheTest, RefreshingAKeyDoesNotGrowOrEvict) {
  Cache cache(4);
  for (int i = 0; i < 4; ++i) cache.Put(Key(i), Make(i));
  // Replace an existing key with a newer version: size unchanged, no
  // eviction, newest value served.
  cache.Put(Key(2), Make(222, 2));
  EXPECT_EQ(cache.size(), 4u);
  CacheLookup outcome;
  auto hit = cache.Get(Key(2), AtVersion(2), &outcome);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 222);
  for (int i : {0, 1, 3}) {
    EXPECT_NE(cache.Get(Key(i), AtVersion(1), &outcome), nullptr) << i;
  }
}

TEST(LruCacheTest, StaleIsReportedOnceThenMiss) {
  Cache cache(4);
  cache.Put("k", Make(1, /*version=*/1));
  CacheLookup outcome;
  EXPECT_EQ(cache.Get("k", AtVersion(2), &outcome), nullptr);
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(cache.size(), 0u);  // Dropped in place.
  EXPECT_EQ(cache.Get("k", AtVersion(2), &outcome), nullptr);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
}

TEST(LruCacheTest, ZeroCapacityCacheStoresNothing) {
  Cache cache(0);
  cache.Put("k", Make(42));
  EXPECT_EQ(cache.size(), 0u);
  CacheLookup outcome;
  EXPECT_EQ(cache.Get("k", AtVersion(1), &outcome), nullptr);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
}

TEST(LruCacheTest, EvictsTheLeastRecentlyUsedEntryFirst) {
  Cache cache(3);
  for (int i = 0; i < 3; ++i) cache.Put(Key(i), Make(i));
  CacheLookup outcome;
  // Touch 0, so 1 is the least recent; inserting 3 evicts it.
  ASSERT_NE(cache.Get(Key(0), AtVersion(1), &outcome), nullptr);
  cache.Put(Key(3), Make(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get(Key(1), AtVersion(1), &outcome), nullptr);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  for (int i : {0, 2, 3}) {
    EXPECT_NE(cache.Get(Key(i), AtVersion(1), &outcome), nullptr) << i;
  }
}

// A value whose release reads the cache that held it. Were a dropped
// value released under the cache's std::mutex, size() would deadlock
// and the test would time out.
struct ProbesCacheOnRelease {
  ProbesCacheOnRelease(LruCache<ProbesCacheOnRelease>* cache, int* releases,
                       uint64_t version)
      : cache(cache), releases(releases), version(version) {}
  ~ProbesCacheOnRelease() {
    (void)cache->size();
    ++*releases;
  }
  LruCache<ProbesCacheOnRelease>* cache;
  int* releases;
  uint64_t version;
};

TEST(LruCacheTest, DroppedValuesAreReleasedOutsideTheMutex) {
  LruCache<ProbesCacheOnRelease> cache(1);
  int releases = 0;
  auto make = [&](uint64_t version) {
    return std::make_shared<const ProbesCacheOnRelease>(&cache, &releases,
                                                        version);
  };
  auto fresh_at = [](uint64_t version) {
    return [version](const ProbesCacheOnRelease& v) {
      return v.version == version;
    };
  };

  cache.Put("a", make(1));
  cache.Put("a", make(2));  // Replaced.
  EXPECT_EQ(releases, 1);
  cache.Put("b", make(2));  // Evicts "a".
  EXPECT_EQ(releases, 2);
  CacheLookup outcome;
  EXPECT_EQ(cache.Get("b", fresh_at(3), &outcome), nullptr);  // Stale.
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(releases, 3);
  cache.Put("c", make(3));
  cache.Clear();
  EXPECT_EQ(releases, 4);
  EXPECT_EQ(cache.size(), 0u);
}

// Readers, writers and stale drops on one cache at once: no probe is
// served a value that fails its freshness test, and the size never
// exceeds the capacity.
TEST(LruCacheConcurrencyTest, MixedTrafficStaysWithinCapacity) {
  constexpr size_t kCap = 8;
  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  Cache cache(kCap);
  std::atomic<uint64_t> version{1};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t));
      for (int i = 0; i < kIterations; ++i) {
        const std::string key = Key(static_cast<int>(rng() % 32));
        const uint64_t v = version.load();
        CacheLookup outcome;
        auto hit = cache.Get(key, AtVersion(v), &outcome);
        if (hit != nullptr && hit->version != v) ++violations;
        if (hit == nullptr) cache.Put(key, Make(i, v));
        // One thread moves the version, turning every entry stale.
        if (t == 0 && i % 64 == 0) version.fetch_add(1);
        if (cache.size() > kCap) ++violations;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(cache.size(), kCap);
}

}  // namespace
}  // namespace wfrm
