#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "policy/paper_retrieval.h"
#include "policy/policy_store.h"
#include "policy/synthetic.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

using rel::Value;
using Strategy = PaperRetrievalOptions::Strategy;

/// The compiled flat-interval tables must be extensionally equal to the
/// paper's own retrieval paths, and must never serve stale results
/// across a mutation epoch.
class CompiledTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
  }

  rel::ParamMap ProgrammingSpec(int64_t lines, const std::string& loc) {
    return {{"NumberOfLines", Value::Int(lines)},
            {"Location", Value::String(loc)}};
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
};

TEST_F(CompiledTest, CompiledMatchesFigure11) {
  store_->set_compiled_enabled(true);
  store_->set_cache_enabled(false);

  auto relevant = store_->RelevantRequirements(
      "Programmer", "Programming", ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(relevant.ok()) << relevant.status().ToString();
  ASSERT_EQ(relevant->size(), 2u);
  EXPECT_EQ((*relevant)[0].where_clause, "Experience > 5");
  EXPECT_EQ((*relevant)[1].where_clause, "Language = 'Spanish'");

  const StoreStatsSnapshot snap = store_->StatsSnapshot();
  EXPECT_GE(snap.compiled_builds, 1u);
  EXPECT_GE(snap.compiled_probes, 1u);
}

TEST_F(CompiledTest, WarmProbeReusesTheTable) {
  store_->set_compiled_enabled(true);
  store_->set_cache_enabled(false);  // Isolate the compiled-table cache.

  ASSERT_TRUE(store_
                  ->RelevantRequirements("Programmer", "Programming",
                                         ProgrammingSpec(35000, "Mexico"))
                  .ok());
  const uint64_t builds_after_first = store_->StatsSnapshot().compiled_builds;
  // Different spec, same (resource, activity): same table, new probe.
  ASSERT_TRUE(store_
                  ->RelevantRequirements("Programmer", "Programming",
                                         ProgrammingSpec(500, "PA"))
                  .ok());
  const StoreStatsSnapshot snap = store_->StatsSnapshot();
  EXPECT_EQ(snap.compiled_builds, builds_after_first);
  EXPECT_GE(snap.compiled_probes, 2u);
}

TEST_F(CompiledTest, EpochBumpInvalidatesMidStream) {
  store_->set_compiled_enabled(true);
  store_->set_cache_enabled(false);

  auto before = store_->RelevantRequirements(
      "Programmer", "Programming", ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(before.ok());
  const size_t n_before = before->size();
  const uint64_t builds_before = store_->StatsSnapshot().compiled_builds;

  // A policy mutation bumps the epoch; the warm table must be abandoned
  // and the new policy visible on the very next probe.
  ASSERT_TRUE(store_
                  ->AddRequirement(std::get<RequirementPolicy>(
                      *ParsePolicy("Require Employee Where Experience >= 0 "
                                   "For Activity")))
                  .ok());

  auto after = store_->RelevantRequirements(
      "Programmer", "Programming", ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), n_before + 1);
  bool found = false;
  for (const auto& r : *after) {
    if (r.where_clause == "Experience >= 0") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(store_->StatsSnapshot().compiled_builds, builds_before);
}

TEST_F(CompiledTest, HierarchyEditAlsoInvalidates) {
  store_->set_compiled_enabled(true);
  store_->set_cache_enabled(false);

  ASSERT_TRUE(store_
                  ->RelevantRequirements("Programmer", "Programming",
                                         ProgrammingSpec(35000, "Mexico"))
                  .ok());
  const uint64_t epoch_before = store_->epoch();
  // An org edit shifts the combined epoch even with no policy change.
  ASSERT_TRUE(org_->DefineResourceType("Intern", "Employee").ok());
  EXPECT_NE(store_->epoch(), epoch_before);

  const uint64_t builds_before = store_->StatsSnapshot().compiled_builds;
  ASSERT_TRUE(store_
                  ->RelevantRequirements("Programmer", "Programming",
                                         ProgrammingSpec(35000, "Mexico"))
                  .ok());
  EXPECT_GT(store_->StatsSnapshot().compiled_builds, builds_before);
}

TEST_F(CompiledTest, PlanCacheCountersSurfaceInSnapshot) {
  PaperRetrieval sql(*store_, {Strategy::kSql});

  ASSERT_TRUE(sql.RelevantRequirements("Programmer", "Programming",
                                       ProgrammingSpec(35000, "Mexico"))
                  .ok());
  PaperRetrievalStats snap = sql.stats();
  EXPECT_GE(snap.plan_cache_misses, 1u);

  ASSERT_TRUE(sql.RelevantRequirements("Programmer", "Programming",
                                       ProgrammingSpec(200, "PA"))
                  .ok());
  snap = sql.stats();
  EXPECT_GE(snap.plan_cache_hits, 1u);
  EXPECT_GE(sql.plan_cache().size(), 1u);
}

TEST_F(CompiledTest, AblationSwitchFallsBackToDirectPlans) {
  store_->set_compiled_enabled(false);
  store_->set_cache_enabled(false);

  const uint64_t probes_before = store_->StatsSnapshot().compiled_probes;
  auto relevant = store_->RelevantRequirements(
      "Programmer", "Programming", ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(relevant.ok());
  EXPECT_EQ(relevant->size(), 2u);
  EXPECT_EQ(store_->StatsSnapshot().compiled_probes, probes_before);
}

TEST(CompiledEquivalenceTest, AllRetrievalPathsAgreeOnRandomBases) {
  // Property: the store's compiled tables and reference plan, and every
  // paper ablation (both join orders, the adaptive planner and the
  // Figure 13/14/15 SQL, each with indexes on and off) are equal row for
  // row on random policy bases.
  SyntheticConfig config;
  config.num_activities = 15;
  config.num_resources = 15;
  config.q = 4;
  config.c = 3;
  config.intervals = 2;
  config.seed = 42;
  auto w = SyntheticWorkload::Build(config);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  PolicyStore& store = (*w)->store();
  store.set_cache_enabled(false);

  std::vector<std::unique_ptr<PaperRetrieval>> ablations;
  for (Strategy strategy : {Strategy::kFilterFirst, Strategy::kPoliciesFirst,
                            Strategy::kAdaptive, Strategy::kSql}) {
    for (bool use_indexes : {true, false}) {
      ablations.push_back(std::make_unique<PaperRetrieval>(
          store, PaperRetrievalOptions{strategy, use_indexes}));
    }
  }

  std::mt19937 rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    auto query = (*w)->RandomQuery(rng);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    rel::ParamMap spec = query->spec.AsParams();
    const std::string& res = query->resource();
    const std::string& act = query->activity();

    store.set_compiled_enabled(true);
    auto compiled = store.RelevantRequirements(res, act, spec);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    store.set_compiled_enabled(false);
    std::vector<std::vector<RelevantRequirement>> others;
    auto reference = store.RelevantRequirements(res, act, spec);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    others.push_back(*std::move(reference));
    for (const auto& ablation : ablations) {
      auto rows = ablation->RelevantRequirements(res, act, spec);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      others.push_back(*std::move(rows));
    }

    for (size_t k = 0; k < others.size(); ++k) {
      SCOPED_TRACE(k == 0 ? std::string("reference plan")
                          : "ablation " + std::to_string(k - 1));
      ASSERT_EQ(compiled->size(), others[k].size()) << "trial " << trial;
      for (size_t i = 0; i < compiled->size(); ++i) {
        EXPECT_EQ((*compiled)[i].pid, others[k][i].pid);
        EXPECT_EQ((*compiled)[i].where_clause, others[k][i].where_clause);
        EXPECT_EQ((*compiled)[i].group, others[k][i].group);
      }
    }
  }
}

TEST(CompiledConcurrencyTest, ParallelSqlRetrievalsShareOnePlan) {
  // The SQL ablation holds only a shared lock per query once its views
  // are registered; concurrent retrievals must neither race nor diverge.
  SyntheticConfig config;
  config.num_activities = 7;
  config.num_resources = 7;
  config.q = 3;
  config.c = 3;
  config.seed = 11;
  auto w = SyntheticWorkload::Build(config);
  ASSERT_TRUE(w.ok());
  PaperRetrieval sql((*w)->store(), {Strategy::kSql});

  std::mt19937 rng(3);
  auto query = (*w)->RandomQuery(rng);
  ASSERT_TRUE(query.ok());
  rel::ParamMap spec = query->spec.AsParams();
  auto expect =
      sql.RelevantRequirements(query->resource(), query->activity(), spec);
  ASSERT_TRUE(expect.ok());

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto got = sql.RelevantRequirements(query->resource(),
                                            query->activity(), spec);
        if (!got.ok() || got->size() != expect->size()) {
          ++mismatches;
          continue;
        }
        for (size_t k = 0; k < got->size(); ++k) {
          if ((*got)[k].pid != (*expect)[k].pid) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // One prepared plan served all 400 retrievals after the first miss.
  EXPECT_GE(sql.stats().plan_cache_hits, 400u);
}

}  // namespace
}  // namespace wfrm::policy
