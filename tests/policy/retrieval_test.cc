#include <gtest/gtest.h>

#include <random>
#include <set>

#include "policy/naive_store.h"
#include "policy/paper_retrieval.h"
#include "policy/policy_store.h"
#include "policy/synthetic.h"
#include "rql/rql.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

using rel::Value;
using Strategy = PaperRetrievalOptions::Strategy;

/// Who answers requirement retrieval: the serving store, or the Figure
/// 13/14/15 SQL ablation loaded from it. Qualification and substitution
/// always come from the store; under kSql they run with the ablation's
/// views already registered beside it, which must not disturb it.
enum class Path { kStore, kSql };

class RetrievalTest : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
    if (GetParam() == Path::kSql) {
      sql_ = std::make_unique<PaperRetrieval>(
          *store_, PaperRetrievalOptions{Strategy::kSql});
      ASSERT_TRUE(sql_->RelevantRequirements("Programmer", "Programming",
                                             ProgrammingSpec(1, "PA"))
                      .ok());
    }
  }

  rel::ParamMap ProgrammingSpec(int64_t lines, const std::string& loc) {
    return {{"NumberOfLines", Value::Int(lines)},
            {"Location", Value::String(loc)}};
  }

  Result<std::vector<RelevantRequirement>> Relevant(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) {
    return sql_ != nullptr
               ? sql_->RelevantRequirements(resource, activity, spec)
               : store_->RelevantRequirements(resource, activity, spec);
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
  std::unique_ptr<PaperRetrieval> sql_;
};

INSTANTIATE_TEST_SUITE_P(Modes, RetrievalTest,
                         ::testing::Values(Path::kStore, Path::kSql),
                         [](const auto& info) {
                           return info.param == Path::kStore ? "Direct" : "Sql";
                         });

TEST_P(RetrievalTest, QualifiedSubtypesFigure10) {
  // §4.1's example: of Engineer's sub-types only Programmer is qualified
  // for Programming (via Engineering).
  auto subtypes = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(subtypes.ok()) << subtypes.status().ToString();
  ASSERT_EQ(subtypes->size(), 1u);
  EXPECT_EQ((*subtypes)[0], "Programmer");
}

TEST_P(RetrievalTest, QualificationInheritsDownBothHierarchies) {
  // Programmer (a sub-type of itself) is qualified for Programming and
  // Analysis (sub-types of Engineering).
  EXPECT_TRUE(*store_->IsQualified("Programmer", "Programming"));
  EXPECT_TRUE(*store_->IsQualified("Programmer", "Analysis"));
  EXPECT_TRUE(*store_->IsQualified("Programmer", "Engineering"));
  // But not for Administration work.
  EXPECT_FALSE(*store_->IsQualified("Programmer", "Approval"));
  // Closed world: Secretary is not qualified for anything technical.
  EXPECT_FALSE(*store_->IsQualified("Secretary", "Programming"));
}

TEST_P(RetrievalTest, QualifiedSubtypesClosedWorldAssumption) {
  auto none = store_->QualifiedSubtypes("Secretary", "Programming");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // From Employee: Programmer qualifies for Programming; Analyst only for
  // Analysis; Manager only for Approval.
  auto from_employee = store_->QualifiedSubtypes("Employee", "Programming");
  ASSERT_TRUE(from_employee.ok());
  ASSERT_EQ(from_employee->size(), 1u);
  EXPECT_EQ((*from_employee)[0], "Programmer");
}

TEST_P(RetrievalTest, RelevantRequirementsFigure11) {
  // The Figure 10 query: Programmer for Programming(35000, Mexico).
  auto relevant = Relevant("Programmer", "Programming",
                           ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(relevant.ok()) << relevant.status().ToString();
  ASSERT_EQ(relevant->size(), 2u);
  EXPECT_EQ((*relevant)[0].where_clause, "Experience > 5");
  EXPECT_EQ((*relevant)[1].where_clause, "Language = 'Spanish'");
}

TEST_P(RetrievalTest, RangeBoundaryExcludesOutOfRangeSpecs) {
  // NumberOfLines = 10000 is NOT > 10000, so only the Spanish policy
  // (Location = Mexico) applies.
  auto at_bound = Relevant("Programmer", "Programming",
                           ProgrammingSpec(10000, "Mexico"));
  ASSERT_TRUE(at_bound.ok());
  ASSERT_EQ(at_bound->size(), 1u);
  EXPECT_EQ((*at_bound)[0].where_clause, "Language = 'Spanish'");

  // 10001 is back inside.
  auto inside = Relevant("Programmer", "Programming",
                         ProgrammingSpec(10001, "Mexico"));
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->size(), 2u);

  // Location other than Mexico drops the language policy.
  auto pa = Relevant("Programmer", "Programming", ProgrammingSpec(35000, "PA"));
  ASSERT_TRUE(pa.ok());
  ASSERT_EQ(pa->size(), 1u);
  EXPECT_EQ((*pa)[0].where_clause, "Experience > 5");
}

TEST_P(RetrievalTest, ResourceTypeScopesRelevance) {
  // An Analyst is not a Programmer: only the Employee-level policy
  // applies to it.
  auto relevant = Relevant("Analyst", "Programming",
                           ProgrammingSpec(35000, "Mexico"));
  ASSERT_TRUE(relevant.ok());
  ASSERT_EQ(relevant->size(), 1u);
  EXPECT_EQ((*relevant)[0].where_clause, "Language = 'Spanish'");
}

TEST_P(RetrievalTest, ActivityTypeScopesRelevance) {
  // Approval activity: the two Figure 8 manager policies split on the
  // Amount range.
  rel::ParamMap small = {{"Amount", Value::Int(500)},
                         {"Requester", Value::String("alice")},
                         {"Location", Value::String("PA")}};
  auto relevant = Relevant("Manager", "Approval", small);
  ASSERT_TRUE(relevant.ok());
  ASSERT_EQ(relevant->size(), 1u);
  EXPECT_NE((*relevant)[0].where_clause.find("Emp = [Requester])"),
            std::string::npos);

  rel::ParamMap medium = {{"Amount", Value::Int(2500)},
                          {"Requester", Value::String("alice")},
                          {"Location", Value::String("PA")}};
  auto relevant2 = Relevant("Manager", "Approval", medium);
  ASSERT_TRUE(relevant2.ok());
  ASSERT_EQ(relevant2->size(), 1u);
  EXPECT_NE((*relevant2)[0].where_clause.find("Connect By"),
            std::string::npos);

  // Amount beyond both ranges: no manager policy fits.
  rel::ParamMap large = {{"Amount", Value::Int(10000)},
                         {"Requester", Value::String("alice")},
                         {"Location", Value::String("PA")}};
  auto relevant3 = Relevant("Manager", "Approval", large);
  ASSERT_TRUE(relevant3.ok());
  EXPECT_TRUE(relevant3->empty());
}

TEST_P(RetrievalTest, ZeroIntervalPoliciesAlwaysRelevant) {
  // Figure 15's second union arm.
  ASSERT_TRUE(store_
                  ->AddRequirement(std::get<RequirementPolicy>(
                      *ParsePolicy("Require Employee Where Experience >= 0 "
                                   "For Activity")))
                  .ok());
  auto relevant = Relevant("Programmer", "Programming",
                           ProgrammingSpec(1, "PA"));
  ASSERT_TRUE(relevant.ok());
  ASSERT_EQ(relevant->size(), 1u);
  EXPECT_EQ((*relevant)[0].where_clause, "Experience >= 0");
}

TEST_P(RetrievalTest, DisjunctiveGroupMatchesEitherDisjunct) {
  ASSERT_TRUE(store_
                  ->AddRequirement(std::get<RequirementPolicy>(*ParsePolicy(
                      "Require Manager Where Experience > 3 For Approval "
                      "With Amount < 10 Or Amount > 100")))
                  .ok());
  for (int64_t amount : {5, 500}) {
    rel::ParamMap spec = {{"Amount", Value::Int(amount)},
                          {"Requester", Value::String("x")},
                          {"Location", Value::String("PA")}};
    auto relevant = Relevant("Manager", "Approval", spec);
    ASSERT_TRUE(relevant.ok());
    bool found = false;
    for (const auto& r : *relevant) {
      if (r.where_clause == "Experience > 3") found = true;
    }
    EXPECT_TRUE(found) << "amount=" << amount;
  }
  rel::ParamMap middle = {{"Amount", Value::Int(50)},
                          {"Requester", Value::String("x")},
                          {"Location", Value::String("PA")}};
  auto relevant = Relevant("Manager", "Approval", middle);
  ASSERT_TRUE(relevant.ok());
  for (const auto& r : *relevant) {
    EXPECT_NE(r.where_clause, "Experience > 3");
  }
}

TEST_P(RetrievalTest, RelevantSubstitutionsFigure12Conditions) {
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Engineer Where Location = 'PA' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());

  // All four §4.3 conditions hold.
  auto relevant = store_->RelevantSubstitutions(
      "Engineer", q->select->where.get(), "Programming",
      q->spec.AsParams());
  ASSERT_TRUE(relevant.ok()) << relevant.status().ToString();
  ASSERT_EQ(relevant->size(), 1u);
  EXPECT_EQ((*relevant)[0].substituting_where, "Location = 'Cupertino'");

  // Activity range violated: 60000 lines is outside (paper: < 50000).
  rel::ParamMap big = {{"NumberOfLines", Value::Int(60000)},
                       {"Location", Value::String("Mexico")}};
  auto too_big = store_->RelevantSubstitutions(
      "Engineer", q->select->where.get(), "Programming", big);
  ASSERT_TRUE(too_big.ok());
  EXPECT_TRUE(too_big->empty());

  // Resource range disjoint: querying Cupertino engineers does not match
  // the substituted range Location = 'PA'.
  auto q2 = rql::ParseAndBindRql(
      "Select ContactInfo From Engineer Where Location = 'Bristol' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q2.ok());
  auto disjoint = store_->RelevantSubstitutions(
      "Engineer", q2->select->where.get(), "Programming",
      q2->spec.AsParams());
  ASSERT_TRUE(disjoint.ok());
  EXPECT_TRUE(disjoint->empty());

  // Wrong activity: Analysis is not a sub-type of Programming.
  rel::ParamMap analysis_spec = {{"NumberOfLines", Value::Int(35000)},
                                 {"Location", Value::String("Mexico")}};
  auto wrong_act = store_->RelevantSubstitutions(
      "Engineer", q->select->where.get(), "Analysis", analysis_spec);
  ASSERT_TRUE(wrong_act.ok());
  EXPECT_TRUE(wrong_act->empty());
}

TEST_P(RetrievalTest, SubstitutionRelevantForSubtypeQueries) {
  // Footnote 1: the query's resource implies its sub-types, so a policy
  // on Engineer is relevant to a Programmer query (common sub-type).
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto relevant = store_->RelevantSubstitutions(
      "Programmer", q->select->where.get(), "Programming",
      q->spec.AsParams());
  ASSERT_TRUE(relevant.ok());
  EXPECT_EQ(relevant->size(), 1u);
}

TEST_P(RetrievalTest, QueryWithoutRangePredicatesIntersectsEverything) {
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Engineer "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto relevant = store_->RelevantSubstitutions(
      "Engineer", q->select->where.get(), "Programming",
      q->spec.AsParams());
  ASSERT_TRUE(relevant.ok());
  EXPECT_EQ(relevant->size(), 1u);
}

TEST(RetrievalEquivalenceTest, DirectSqlAndNaiveAgreeOnRandomBases) {
  // Property: the three retrieval implementations are extensionally
  // equal — same relevant where-clauses for every query.
  SyntheticConfig config;
  config.num_activities = 15;
  config.num_resources = 15;
  config.q = 4;
  config.c = 3;
  config.intervals = 2;
  config.build_naive_baseline = true;
  config.seed = 99;
  auto w = SyntheticWorkload::Build(config);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  PaperRetrieval sql_ablation((*w)->store(), {Strategy::kSql});

  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto query = (*w)->RandomQuery(rng);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    rel::ParamMap spec = query->spec.AsParams();
    const std::string& res = query->resource();
    const std::string& act = query->activity();

    auto direct = (*w)->store().RelevantRequirements(res, act, spec);
    ASSERT_TRUE(direct.ok());

    auto sql = sql_ablation.RelevantRequirements(res, act, spec);
    ASSERT_TRUE(sql.ok());

    auto naive = (*w)->naive()->RelevantRequirements(res, act, spec);
    ASSERT_TRUE(naive.ok());

    auto clauses = [](const std::vector<RelevantRequirement>& v,
                      bool by_group) {
      std::multiset<std::string> out;
      std::set<int64_t> groups;
      for (const auto& r : v) {
        if (by_group && !groups.insert(r.group).second) continue;
        out.insert(r.where_clause);
      }
      return out;
    };
    // Direct and SQL agree row-for-row.
    ASSERT_EQ(direct->size(), sql->size()) << "trial " << trial;
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ((*direct)[i].pid, (*sql)[i].pid);
      EXPECT_EQ((*direct)[i].where_clause, (*sql)[i].where_clause);
    }
    // Naive (no DNF split) agrees at source-policy granularity.
    EXPECT_EQ(clauses(*direct, true), clauses(*naive, false))
        << "trial " << trial;
  }
}

TEST(RetrievalEquivalenceTest, IndexedAndScanPathsAgree) {
  SyntheticConfig config;
  config.num_activities = 15;
  config.num_resources = 15;
  config.q = 3;
  config.c = 4;
  config.seed = 123;
  auto w = SyntheticWorkload::Build(config);
  ASSERT_TRUE(w.ok());
  PaperRetrieval index_probes((*w)->store());
  PaperRetrieval full_scans((*w)->store(), {Strategy::kFilterFirst,
                                            /*use_indexes=*/false});

  std::mt19937 rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    auto query = (*w)->RandomQuery(rng);
    ASSERT_TRUE(query.ok());
    rel::ParamMap spec = query->spec.AsParams();

    auto indexed = index_probes.RelevantRequirements(
        query->resource(), query->activity(), spec);
    auto scanned = full_scans.RelevantRequirements(
        query->resource(), query->activity(), spec);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(scanned.ok());
    ASSERT_EQ(indexed->size(), scanned->size());
    for (size_t i = 0; i < indexed->size(); ++i) {
      EXPECT_EQ((*indexed)[i].pid, (*scanned)[i].pid);
    }
  }
}

TEST(RetrievalStatsTest, IndexProbesTouchFewerRowsThanScans) {
  SyntheticConfig config;
  config.num_activities = 63;
  config.num_resources = 63;
  config.q = 8;
  config.c = 8;
  config.seed = 5;
  auto w = SyntheticWorkload::Build(config);
  ASSERT_TRUE(w.ok());
  std::mt19937 rng(5);
  auto query = (*w)->RandomQuery(rng);
  ASSERT_TRUE(query.ok());

  PaperRetrieval index_probes((*w)->store());
  ASSERT_TRUE(index_probes
                  .RelevantRequirements(query->resource(), query->activity(),
                                        query->spec.AsParams())
                  .ok());
  uint64_t indexed_rows = index_probes.stats().candidate_rows +
                          index_probes.stats().interval_rows;

  PaperRetrieval full_scans((*w)->store(), {Strategy::kFilterFirst,
                                            /*use_indexes=*/false});
  ASSERT_TRUE(full_scans
                  .RelevantRequirements(query->resource(), query->activity(),
                                        query->spec.AsParams())
                  .ok());
  uint64_t scanned_rows = full_scans.stats().candidate_rows +
                          full_scans.stats().interval_rows;

  EXPECT_LT(indexed_rows, scanned_rows / 4)
      << "indexed=" << indexed_rows << " scanned=" << scanned_rows;
}

}  // namespace
}  // namespace wfrm::policy
