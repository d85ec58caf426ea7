// Unit and property tests for the paged storage primitives: the
// copy-on-write pager (generation fallback, free-list recycling, pool
// eviction under pressure), the B+tree (randomized differential against
// std::map across split/merge boundaries, overflow values), and the
// bloom filter (false-positive rate stays near its sizing target).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "store/bloom.h"
#include "store/btree.h"
#include "store/pager.h"

namespace wfrm::store {
namespace {

class PagerBtreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_pager_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(PagerBtreeTest, PagerRoundTripsPagesAcrossReopen) {
  std::string path = Path("p.db");
  uint64_t pid = 0;
  {
    auto pager = Pager::Open(path);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    EXPECT_TRUE((*pager)->created());
    auto page = (*pager)->Alloc();
    ASSERT_TRUE(page.ok());
    pid = page->id();
    std::memset(page->data(), 0xAB, (*pager)->page_size());
    page->MarkDirty();
    ASSERT_TRUE((*pager)->Commit("hello-meta").ok());
  }
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok());
  EXPECT_FALSE((*pager)->created());
  EXPECT_EQ((*pager)->app_meta(), "hello-meta");
  auto page = (*pager)->Read(pid);
  ASSERT_TRUE(page.ok());
  for (uint32_t i = 0; i < (*pager)->page_size(); ++i) {
    ASSERT_EQ(page->data()[i], 0xAB) << "byte " << i;
  }
}

TEST_F(PagerBtreeTest, UncommittedWritesFallBackToPreviousGeneration) {
  std::string path = Path("p.db");
  uint64_t pid = 0;
  {
    auto pager = Pager::Open(path);
    ASSERT_TRUE(pager.ok());
    auto page = (*pager)->Alloc();
    ASSERT_TRUE(page.ok());
    pid = page->id();
    page->data()[0] = 1;
    page->MarkDirty();
    ASSERT_TRUE((*pager)->Commit("gen1").ok());

    // Copy-on-write: a committed page is not writable in place, so the
    // next generation's version lives on a fresh page. Flushing it
    // without a meta commit models a crash mid-checkpoint.
    EXPECT_FALSE((*pager)->WritableInPlace(pid));
    auto next = (*pager)->Alloc();
    ASSERT_TRUE(next.ok());
    next->data()[0] = 2;
    next->MarkDirty();
    (*pager)->Free(pid);
    ASSERT_TRUE((*pager)->FlushWithoutCommit().ok());
  }
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->app_meta(), "gen1");
  auto page = (*pager)->Read(pid);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->data()[0], 1);  // The old generation survived intact.
}

TEST_F(PagerBtreeTest, FreedPagesAreRecycledOnlyAfterCommit) {
  std::string path = Path("p.db");
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Alloc();
  ASSERT_TRUE(page.ok());
  uint64_t pid = page->id();
  page->MarkDirty();
  page = PageRef();  // Unpin before freeing.
  ASSERT_TRUE((*pager)->Commit("a").ok());

  // The durable generation references pid, so freeing it must not make
  // it allocatable until the *next* commit severs that reference.
  (*pager)->Free(pid);
  EXPECT_EQ((*pager)->free_page_count(), 0u);
  ASSERT_TRUE((*pager)->Commit("b").ok());
  EXPECT_EQ((*pager)->free_page_count(), 1u);
  auto reused = (*pager)->Alloc();
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused->id(), pid);
}

// Regression: Commit used to place every free-list chain page at the
// end of the file and free the previous chain, so the list, the chain
// and the file grew geometrically with the number of commits (a
// checkpoint per upsert on a 100k-entry tree passed 1.9 GB by commit
// 3,800). Chain pages now come from the allocatable free list.
TEST_F(PagerBtreeTest, SingleUpsertCommitsKeepTheFileBounded) {
  const std::string path = Path("commits.db");
  PagerOptions options;
  options.page_size = 1024;  // 126 free-list entries per chain page.
  constexpr int kEntries = 4000;
  auto key = [](int i) {
    std::string k = "key";
    k += std::to_string(100000 + i);
    return k;
  };
  auto value = [](int c) {
    std::string v = "v";
    v += std::to_string(c);
    return v;
  };
  uint64_t root = 0;
  {
    auto pager = Pager::Open(path, options);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BTree tree(pager->get(), 0);
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(tree.Put(key(i), "v0").ok());
    }
    ASSERT_TRUE((*pager)->Commit(std::to_string(tree.root())).ok());
    const uint64_t loaded = (*pager)->page_count();
    for (int c = 1; c <= 600; ++c) {
      ASSERT_TRUE(tree.Put(key(c * 7 % kEntries), value(c)).ok());
      ASSERT_TRUE((*pager)->Commit(std::to_string(tree.root())).ok());
      ASSERT_LE((*pager)->page_count(), loaded + 16) << "after commit " << c;
    }
    root = tree.root();
  }
  auto reopened = Pager::Open(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->app_meta(), std::to_string(root));
  BTree tree(reopened->get(), root);
  std::map<int, std::string> last;
  for (int c = 1; c <= 600; ++c) {
    last[c * 7 % kEntries] = value(c);
  }
  for (int i = 0; i < kEntries; ++i) {
    auto got = tree.Get(key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->has_value()) << key(i);
    auto it = last.find(i);
    EXPECT_EQ(**got, it == last.end() ? "v0" : it->second) << key(i);
  }
}

TEST_F(PagerBtreeTest, TinyPoolEvictsAndStillReadsBack) {
  std::string path = Path("p.db");
  PagerOptions options;
  options.pool_pages = 8;  // Minimum pool: force constant eviction.
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok());
  std::vector<uint64_t> pids;
  for (int i = 0; i < 64; ++i) {
    auto page = (*pager)->Alloc();
    ASSERT_TRUE(page.ok()) << i;
    page->data()[0] = static_cast<uint8_t>(i);
    page->MarkDirty();
    pids.push_back(page->id());
  }
  ASSERT_TRUE((*pager)->Commit("x").ok());
  EXPECT_GT((*pager)->stats().evictions, 0u);
  for (int i = 0; i < 64; ++i) {
    auto page = (*pager)->Read(pids[static_cast<size_t>(i)]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<uint8_t>(i));
  }
}

TEST_F(PagerBtreeTest, NonEmptyFileWithoutValidMetaIsRejected) {
  std::string path = Path("garbage.db");
  {
    std::ofstream out(path, std::ios::binary);
    std::string junk(8192, 'z');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  auto pager = Pager::Open(path);
  ASSERT_FALSE(pager.ok());
  EXPECT_NE(pager.status().message().find("no valid meta slot"),
            std::string::npos)
      << pager.status().ToString();
}

TEST_F(PagerBtreeTest, LooksLikePagesFileSniffsOnlyRealPageFiles) {
  std::string path = Path("p.db");
  {
    auto pager = Pager::Open(path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Commit("").ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_TRUE(LooksLikePagesFile(bytes));
  EXPECT_FALSE(LooksLikePagesFile("wfrm-snapshot-v2 and then some"));
  EXPECT_FALSE(LooksLikePagesFile(""));
}

/// Differential driver: the same randomized Put/Erase/Get stream runs
/// against the B+tree and a std::map oracle; key and value sizes are
/// tuned so the tree passes through leaf/internal splits and merges
/// many times, plus the overflow-chain path for large values.
void RunDifferential(const std::string& path, uint64_t seed, int ops,
                     int key_space, size_t max_value) {
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  BTree tree(pager->get(), 0);
  std::map<std::string, std::string> oracle;

  std::mt19937_64 rng(seed);
  auto make_key = [&](int i) {
    // Variable-length keys keep node occupancy irregular, which is what
    // exercises the split/merge boundaries.
    std::string key = "k";
    key += std::to_string(i);
    key.append(static_cast<size_t>(i % 37), 'x');
    return key;
  };

  for (int op = 0; op < ops; ++op) {
    int i = static_cast<int>(rng() % static_cast<uint64_t>(key_space));
    std::string key = make_key(i);
    uint64_t draw = rng() % 100;
    if (draw < 55) {
      size_t len = rng() % max_value;
      std::string value(len, static_cast<char>('a' + (i % 26)));
      ASSERT_TRUE(tree.Put(key, value).ok()) << "op " << op;
      oracle[key] = value;
    } else if (draw < 80) {
      auto erased = tree.Erase(key);
      ASSERT_TRUE(erased.ok()) << "op " << op;
      EXPECT_EQ(*erased, oracle.erase(key) > 0) << "op " << op;
    } else {
      auto got = tree.Get(key);
      ASSERT_TRUE(got.ok()) << "op " << op;
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_FALSE(got->has_value()) << "op " << op << " key " << key;
      } else {
        ASSERT_TRUE(got->has_value()) << "op " << op << " key " << key;
        EXPECT_EQ(**got, it->second) << "op " << op;
      }
    }
    // Commit at irregular intervals so the tree also crosses COW
    // generation boundaries mid-stream.
    if (op % 997 == 0) {
      ASSERT_TRUE((*pager)->Commit(std::to_string(tree.root())).ok());
    }
  }

  // Full-order scan must agree with the oracle exactly (memcmp order ==
  // std::string's lexicographic order).
  std::vector<std::pair<std::string, std::string>> scanned;
  ASSERT_TRUE(tree.Scan([&](std::string_view key, std::string_view value) {
                    scanned.emplace_back(std::string(key),
                                         std::string(value));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    ASSERT_EQ(scanned[i].first, it->first) << "index " << i;
    ASSERT_EQ(scanned[i].second, it->second) << "index " << i;
  }
  auto count = tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, oracle.size());

  // Reopen from the committed root and re-verify a sample: the
  // persisted image must be the same tree.
  ASSERT_TRUE((*pager)->Commit(std::to_string(tree.root())).ok());
  uint64_t root = tree.root();
  auto reopened = Pager::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->app_meta(), std::to_string(root));
  BTree tree2(reopened->get(), root);
  int checked = 0;
  for (const auto& [key, value] : oracle) {
    auto got = tree2.Get(key);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value()) << key;
    EXPECT_EQ(**got, value);
    if (++checked == 200) break;
  }
}

TEST_F(PagerBtreeTest, RandomizedDifferentialSmallValues) {
  // Dense key space + small values: many keys per leaf, so inserts and
  // erases constantly split and merge leaves.
  RunDifferential(Path("small.db"), 0x19990106, 20000, 800, 40);
}

TEST_F(PagerBtreeTest, RandomizedDifferentialOverflowValues) {
  // Values beyond page_size/4 take the overflow-chain path; mixing them
  // with small ones exercises chain alloc/free on overwrite and erase.
  RunDifferential(Path("big.db"), 0x20260806, 4000, 150, 9000);
}

TEST_F(PagerBtreeTest, ClearReleasesEverything) {
  auto pager = Pager::Open(Path("clear.db"));
  ASSERT_TRUE(pager.ok());
  BTree tree(pager->get(), 0);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        tree.Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(tree.Clear().ok());
  auto count = tree.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  ASSERT_TRUE((*pager)->Commit("").ok());
  // Every page the tree held must be back on the free list after the
  // commit (nothing leaked): a fresh insert of the same data must not
  // grow the file.
  uint64_t pages_before = (*pager)->page_count();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        tree.Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE((*pager)->Commit("").ok());
  EXPECT_LE((*pager)->page_count(), pages_before + 2);
}

TEST_F(PagerBtreeTest, BloomFalsePositiveRateStaysNearTarget) {
  // Property: sized for n entries at rate p, the measured FPR on a
  // disjoint probe set stays within 2x of p.
  const size_t n = 20000;
  const double target = 0.01;
  BloomFilter bloom = BloomFilter::ForEntries(n, target);
  for (size_t i = 0; i < n; ++i) {
    bloom.Add("member:" + std::to_string(i));
  }
  for (size_t i = 0; i < n; ++i) {  // No false negatives, ever.
    ASSERT_TRUE(bloom.MayContain("member:" + std::to_string(i))) << i;
  }
  size_t false_positives = 0;
  const size_t probes = 100000;
  for (size_t i = 0; i < probes; ++i) {
    if (bloom.MayContain("absent:" + std::to_string(i))) ++false_positives;
  }
  double fpr = static_cast<double>(false_positives) /
               static_cast<double>(probes);
  EXPECT_LE(fpr, 2.0 * target) << "fpr=" << fpr;
}

TEST_F(PagerBtreeTest, BloomSurvivesSerialization) {
  BloomFilter bloom = BloomFilter::ForEntries(500, 0.01);
  auto name = [](int i) {
    std::string s = "a";
    s += std::to_string(i);
    return s;
  };
  for (int i = 0; i < 500; ++i) bloom.Add(name(i));
  auto restored = BloomFilter::Deserialize(bloom.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->bit_count(), bloom.bit_count());
  EXPECT_EQ(restored->hash_count(), bloom.hash_count());
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(restored->MayContain(name(i))) << i;
  }
}

}  // namespace
}  // namespace wfrm::store
