// Tests for the epoch-versioned enforcement cache: every policy-base
// and hierarchy mutation bumps the store epoch, cached derivations are
// never served stale (under either direct plan), the PolicyManager's
// rewrite LRU tracks the same epoch, and StoreStatsSnapshot is a plain
// value type whose difference prices a window of work.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "policy/policy_manager.h"
#include "policy/policy_store.h"
#include "rql/rql.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

constexpr char kFigure4[] =
    "Select ContactInfo From Engineer Where Location = 'PA' "
    "For Programming With NumberOfLines = 35000 And Location = 'Mexico'";

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
  }

  rql::RqlQuery Figure4() {
    auto q = rql::ParseAndBindRql(kFigure4, *org_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).ValueOrDie();
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
};

TEST_F(CacheTest, EveryPolicyMutationBumpsTheEpoch) {
  uint64_t epoch = store_->epoch();

  auto qual = ParsePolicy("Qualify Secretary For Approval");
  ASSERT_TRUE(qual.ok());
  auto qual_pid = store_->AddPolicy(*qual);
  ASSERT_TRUE(qual_pid.ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();

  auto req = ParsePolicy(
      "Require Programmer Where Experience > 8 For Programming "
      "With NumberOfLines > 20000");
  ASSERT_TRUE(req.ok());
  auto req_group = store_->AddPolicy(*req);
  ASSERT_TRUE(req_group.ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();

  auto sub = ParsePolicy(
      "Substitute Analyst By Programmer For Analysis With NumberOfLines > 0");
  ASSERT_TRUE(sub.ok());
  auto sub_group = store_->AddPolicy(*sub);
  ASSERT_TRUE(sub_group.ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();

  ASSERT_TRUE(store_->RemoveQualification(*qual_pid).ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();

  ASSERT_TRUE(store_->RemoveRequirementGroup(*req_group).ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();

  ASSERT_TRUE(store_->RemoveSubstitutionGroup(*sub_group).ok());
  EXPECT_GT(store_->epoch(), epoch);
}

TEST_F(CacheTest, HierarchyEditsBumpTheEpoch) {
  uint64_t epoch = store_->epoch();
  ASSERT_TRUE(org_->DefineResourceType("Intern", "Employee").ok());
  EXPECT_GT(store_->epoch(), epoch);
  epoch = store_->epoch();
  ASSERT_TRUE(org_->DefineActivityType("Auditing", "Activity").ok());
  EXPECT_GT(store_->epoch(), epoch);
}

TEST_F(CacheTest, RepeatedRetrievalIsServedFromTheCache) {
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();

  const StoreStatsSnapshot before = store_->stats().Snapshot();
  auto first = store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(first.ok());
  auto second = store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(second.ok());
  const StoreStatsSnapshot delta = store_->stats().Snapshot() - before;

  EXPECT_EQ(delta.retrievals, 2u);
  EXPECT_EQ(delta.cache_misses, 1u);
  EXPECT_EQ(delta.cache_hits, 1u);
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].pid, (*second)[i].pid);
    EXPECT_EQ((*first)[i].where_clause, (*second)[i].where_clause);
  }
}

// The no-stale-results guarantee, exercised under both of the store's
// requirement paths (compiled tables and the reference plan): a write
// between two identical retrievals must be visible in the second, and
// the stats must record the epoch invalidation.
TEST_F(CacheTest, WritesInvalidateCachedRetrievalsUnderBothPlans) {
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();

  for (bool compiled : {true, false}) {
    SCOPED_TRACE(compiled);
    store_->set_compiled_enabled(compiled);

    auto warm = store_->RelevantRequirements("Programmer", "Programming", spec);
    ASSERT_TRUE(warm.ok());
    const size_t before_rows = warm->size();

    auto added = store_->AddPolicyText(
        "Require Programmer Where Experience < 90000 For Programming "
        "With NumberOfLines > 30000");
    ASSERT_TRUE(added.ok()) << added.ToString();

    const StoreStatsSnapshot before = store_->stats().Snapshot();
    auto after = store_->RelevantRequirements("Programmer", "Programming",
                                              spec);
    ASSERT_TRUE(after.ok());
    const StoreStatsSnapshot delta = store_->stats().Snapshot() - before;

    EXPECT_EQ(after->size(), before_rows + 1) << "stale cached retrieval";
    EXPECT_EQ(delta.cache_hits, 0u);
    EXPECT_GE(delta.cache_invalidations + delta.cache_misses, 1u);

    auto reqs = store_->ListRequirements();
    ASSERT_TRUE(reqs.ok());
    ASSERT_TRUE(store_->RemoveRequirementGroup(reqs->back().group).ok());
  }
}

TEST_F(CacheTest, RemovalsAreVisibleThroughTheCache) {
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();

  auto warm = store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(warm.ok());
  ASSERT_FALSE(warm->empty());

  auto reqs = store_->ListRequirements();
  ASSERT_TRUE(reqs.ok());
  // The first paper requirement targets Programmer/Programming and is
  // live at NumberOfLines = 35000 — dropping it must shrink the result.
  ASSERT_TRUE(store_->RemoveRequirementGroup(reqs->front().group).ok());

  auto after = store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), warm->size() - 1) << "stale cached retrieval";
}

TEST_F(CacheTest, QualificationFanOutTracksHierarchyEdits) {
  auto warm = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(warm.ok());
  const size_t before_types = warm->size();

  // A new Engineer sub-type inherits Programmer's qualification only if
  // it is itself qualified; qualify it explicitly and both the
  // hierarchy edit and the policy write must be visible.
  ASSERT_TRUE(org_->DefineResourceType("Junior", "Programmer").ok());
  auto after_edit = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(after_edit.ok());
  EXPECT_EQ(after_edit->size(), before_types + 1)
      << "descendant closure served stale";

  ASSERT_TRUE(store_->AddPolicyText("Qualify Analyst For Programming").ok());
  auto after_policy = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(after_policy.ok());
  EXPECT_EQ(after_policy->size(), before_types + 2)
      << "qualification set served stale";
}

TEST_F(CacheTest, RewriteLruServesAndInvalidatesWholeEnforcements) {
  PolicyManager pm(org_.get(), store_.get());
  auto query = Figure4();

  const StoreStatsSnapshot before = store_->stats().Snapshot();
  auto first = pm.EnforcePrimary(query);
  ASSERT_TRUE(first.ok());
  auto second = pm.EnforcePrimary(query);
  ASSERT_TRUE(second.ok());
  StoreStatsSnapshot delta = store_->stats().Snapshot() - before;
  EXPECT_EQ(delta.rewrite_cache_misses, 1u);
  EXPECT_EQ(delta.rewrite_cache_hits, 1u);
  EXPECT_EQ(pm.rewrite_cache_size(), 1u);

  ASSERT_EQ(first->queries.size(), second->queries.size());
  for (size_t i = 0; i < first->queries.size(); ++i) {
    EXPECT_EQ(first->queries[i].ToString(), second->queries[i].ToString());
  }

  // A write that changes the enforcement outcome: the cached entry is
  // epoch-stale and the fresh rewrite carries the new conjunct.
  ASSERT_TRUE(store_->AddPolicyText(
                        "Require Programmer Where Experience < 123456 "
                        "For Programming With NumberOfLines > 30000")
                  .ok());
  auto third = pm.EnforcePrimary(query);
  ASSERT_TRUE(third.ok());
  bool saw_new_conjunct = false;
  for (const auto& q : third->queries) {
    if (q.ToString().find("123456") != std::string::npos) {
      saw_new_conjunct = true;
    }
  }
  EXPECT_TRUE(saw_new_conjunct) << "rewrite LRU served a stale enforcement";
}

TEST_F(CacheTest, RewriteMemoEvictsTheLeastRecentlyUsedEntry) {
  PolicyManager pm(org_.get(), store_.get(), /*rewrite_cache_capacity=*/3);
  std::vector<rql::RqlQuery> queries;
  for (int lines : {20000, 30000, 40000, 45000, 46000}) {
    auto q = rql::ParseAndBindRql(
        "Select ContactInfo From Engineer Where Location = 'PA' "
        "For Programming With NumberOfLines = " +
            std::to_string(lines) + " And Location = 'Mexico'",
        *org_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    queries.push_back(std::move(*q));
  }
  auto hit = [&](const rql::RqlQuery& q) {
    const uint64_t before = store_->stats().Snapshot().rewrite_cache_hits;
    EXPECT_TRUE(pm.EnforcePrimaryShared(q).ok());
    return store_->stats().Snapshot().rewrite_cache_hits == before + 1;
  };
  // Fill with 0, 1, 2; touch 0 and 1, so 2 is least recent; 3 evicts 2.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(hit(queries[i]));
  EXPECT_TRUE(hit(queries[0]));
  EXPECT_TRUE(hit(queries[1]));
  EXPECT_FALSE(hit(queries[3]));
  EXPECT_EQ(pm.rewrite_cache_size(), 3u);
  // 2 was evicted (its miss now evicts 0, the least recent), 1 and 3
  // stayed.
  EXPECT_FALSE(hit(queries[2]));
  EXPECT_TRUE(hit(queries[1]));
  EXPECT_TRUE(hit(queries[3]));
  EXPECT_FALSE(hit(queries[0]));
  // A refreshed entry outlives an older one when a new key arrives.
  EXPECT_TRUE(hit(queries[1]));
  EXPECT_FALSE(hit(queries[4]));
  EXPECT_TRUE(hit(queries[1]));
  EXPECT_FALSE(hit(queries[3]));
  EXPECT_EQ(pm.rewrite_cache_size(), 3u);
}

TEST_F(CacheTest, DisablingTheCacheBypassesIt) {
  store_->set_cache_enabled(false);
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();

  const StoreStatsSnapshot before = store_->stats().Snapshot();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        store_->RelevantRequirements("Programmer", "Programming", spec).ok());
  }
  const StoreStatsSnapshot delta = store_->stats().Snapshot() - before;
  EXPECT_EQ(delta.retrievals, 3u);
  EXPECT_EQ(delta.cache_hits, 0u);
  EXPECT_EQ(delta.cache_misses, 0u);

  PolicyManager pm(org_.get(), store_.get());
  ASSERT_TRUE(pm.EnforcePrimary(query).ok());
  ASSERT_TRUE(pm.EnforcePrimary(query).ok());
  EXPECT_EQ(pm.rewrite_cache_size(), 0u);
}

TEST_F(CacheTest, SnapshotIsACopyableValueWithWindowedDiffs) {
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();

  const StoreStatsSnapshot start = store_->stats().Snapshot();
  StoreStatsSnapshot copy = start;  // plain copy — no atomics involved
  EXPECT_EQ(copy.retrievals, start.retrievals);

  ASSERT_TRUE(
      store_->RelevantRequirements("Programmer", "Programming", spec).ok());
  ASSERT_TRUE(
      store_->RelevantRequirements("Programmer", "Programming", spec).ok());

  const StoreStatsSnapshot window = store_->stats().Snapshot() - copy;
  EXPECT_EQ(window.retrievals, 2u);
  EXPECT_EQ(window.cache_hits, 1u);
  EXPECT_EQ(window.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(window.CacheHitRate(), 0.5);
}

// Regression: Put used to evict only entries from older epochs, so a
// table filled at a single epoch grew without bound. The FIFO bound
// must hold even when every entry is from the live epoch.
TEST(EpochCacheTest, NeverExceedsMaxEntriesAtASingleEpoch) {
  constexpr size_t kCap = 16;
  EpochCache<int> cache(kCap);
  for (int i = 0; i < static_cast<int>(kCap) * 2; ++i) {
    cache.Put("key" + std::to_string(i), /*epoch=*/7, i);
    EXPECT_LE(cache.size(), kCap) << "after insert " << i;
  }
  EXPECT_EQ(cache.size(), kCap);

  // FIFO: the oldest half was evicted, the newest half survives.
  CacheLookup outcome;
  EXPECT_FALSE(cache.Get("key0", 7, &outcome).has_value());
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  auto newest = cache.Get("key31", 7, &outcome);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 31);
  EXPECT_EQ(outcome, CacheLookup::kHit);
}

TEST(EpochCacheTest, RefreshingAKeyDoesNotGrowOrEvict) {
  EpochCache<int> cache(4);
  for (int i = 0; i < 4; ++i) {
    cache.Put("key" + std::to_string(i), 1, i);
  }
  // Refresh an existing key at a newer epoch: size unchanged, no
  // eviction, newest value served.
  cache.Put("key2", 2, 222);
  EXPECT_EQ(cache.size(), 4u);
  CacheLookup outcome;
  auto hit = cache.Get("key2", 2, &outcome);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 222);
  EXPECT_TRUE(cache.Get("key0", 1, &outcome).has_value());
}

TEST(EpochCacheTest, StaleEpochEntriesEvictFirstByInsertionOrder) {
  EpochCache<int> cache(2);
  cache.Put("old", 1, 1);
  cache.Put("mid", 2, 2);
  cache.Put("new", 3, 3);  // Evicts "old" — the earliest insert.
  CacheLookup outcome;
  EXPECT_FALSE(cache.Get("old", 3, &outcome).has_value());
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  EXPECT_FALSE(cache.Get("mid", 3, &outcome).has_value());
  EXPECT_EQ(outcome, CacheLookup::kStale);  // Present but outdated.
  EXPECT_TRUE(cache.Get("new", 3, &outcome).has_value());
}

TEST(EpochCacheTest, ZeroCapacityCacheStoresNothing) {
  EpochCache<int> cache(0);
  cache.Put("key", 1, 42);
  EXPECT_EQ(cache.size(), 0u);
  CacheLookup outcome;
  EXPECT_FALSE(cache.Get("key", 1, &outcome).has_value());
}

}  // namespace
}  // namespace wfrm::policy
