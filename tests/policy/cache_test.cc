// Tests for the epoch-versioned enforcement caches: every policy-base
// and hierarchy mutation bumps the store epoch, retrievals are never
// served stale (under either requirement plan, and for qualification and
// substitution, which the store does not cache), the PolicyManager's
// prepared memo tracks the same epoch, and StoreStatsSnapshot is a plain
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
// requirement paths (compiled tables and the uncached reference plan): a
// write between two identical retrievals must be visible in the second,
// and the compiled tables' counters must record the epoch invalidation.
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
    if (compiled) {
      EXPECT_EQ(delta.cache_hits, 0u);
      EXPECT_GE(delta.cache_invalidations + delta.cache_misses, 1u);
    }

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

TEST_F(CacheTest, SubstitutionRetrievalSeesEveryPolicyWrite) {
  auto query = Figure4();
  const rel::ParamMap spec = query.spec.AsParams();
  auto retrieve = [&] {
    auto subs = store_->RelevantSubstitutions(
        "Engineer", query.select->where.get(), "Programming", spec);
    EXPECT_TRUE(subs.ok()) << subs.status().ToString();
    return subs.ok() ? subs->size() : size_t{0};
  };
  const size_t base = retrieve();

  auto added = store_->AddPolicyText(
      "Substitute Engineer By Analyst For Programming "
      "With NumberOfLines > 0");
  ASSERT_TRUE(added.ok()) << added.ToString();
  EXPECT_EQ(retrieve(), base + 1) << "policy addition not visible";

  auto subs = store_->ListSubstitutions();
  ASSERT_TRUE(subs.ok());
  ASSERT_TRUE(store_->RemoveSubstitutionGroup(subs->back().group).ok());
  EXPECT_EQ(retrieve(), base) << "policy removal not visible";
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

// The switch turns the prepared memo off: it stays empty, counts no
// probes, and the enforcement is the one the memo would serve.
TEST_F(CacheTest, DisablingTheCacheBypassesIt) {
  auto query = Figure4();
  PolicyManager pm(org_.get(), store_.get());
  auto render = [](const EnforcedQueries& enforced) {
    std::vector<std::string> texts;
    for (const auto& q : enforced.queries) texts.push_back(q.ToString());
    return texts;
  };

  store_->set_cache_enabled(false);
  const StoreStatsSnapshot before = store_->stats().Snapshot();
  std::vector<std::vector<std::string>> off;
  for (int i = 0; i < 2; ++i) {
    auto enforced = pm.EnforcePrimary(query);
    ASSERT_TRUE(enforced.ok());
    off.push_back(render(*enforced));
  }
  const StoreStatsSnapshot delta = store_->stats().Snapshot() - before;
  EXPECT_EQ(delta.rewrite_cache_hits, 0u);
  EXPECT_EQ(delta.rewrite_cache_misses, 0u);
  EXPECT_EQ(pm.rewrite_cache_size(), 0u);

  store_->set_cache_enabled(true);
  for (int i = 0; i < 2; ++i) {  // A miss, then a hit.
    auto enforced = pm.EnforcePrimary(query);
    ASSERT_TRUE(enforced.ok());
    EXPECT_EQ(render(*enforced), off[0]);
  }
  EXPECT_EQ(off[1], off[0]);
  EXPECT_EQ(pm.rewrite_cache_size(), 1u);
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

}  // namespace
}  // namespace wfrm::policy
