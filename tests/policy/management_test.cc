#include <gtest/gtest.h>

#include "policy/paper_retrieval.h"
#include "policy/policy_store.h"
#include "rql/rql.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

class ManagementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
};

TEST_F(ManagementTest, ListQualifications) {
  auto quals = store_->ListQualifications();
  ASSERT_EQ(quals.size(), 3u);
  EXPECT_EQ(quals[0].policy.ToString(),
            "Qualify Programmer For Engineering");
  EXPECT_EQ(quals[1].policy.resource, "Analyst");
  EXPECT_EQ(quals[2].policy.activity, "Approval");
}

TEST_F(ManagementTest, ListRequirementsReassemblesGroups) {
  auto reqs = store_->ListRequirements();
  ASSERT_TRUE(reqs.ok()) << reqs.status().ToString();
  ASSERT_EQ(reqs->size(), 4u);
  const auto& first = (*reqs)[0];
  EXPECT_EQ(first.resource, "Programmer");
  EXPECT_EQ(first.activity, "Programming");
  EXPECT_EQ(first.where_clause, "Experience > 5");
  ASSERT_EQ(first.ranges.size(), 1u);
  EXPECT_EQ(first.ranges[0], "NumberOfLines in (10000, +inf)");
}

TEST_F(ManagementTest, ListRequirementsShowsDisjuncts) {
  ASSERT_TRUE(store_->AddPolicyText(
                        "Require Manager Where Experience > 9 For Approval "
                        "With Amount < 10 Or Amount > 100")
                  .ok());
  auto reqs = store_->ListRequirements();
  ASSERT_TRUE(reqs.ok());
  const auto& added = reqs->back();
  ASSERT_EQ(added.pids.size(), 2u);
  ASSERT_EQ(added.ranges.size(), 2u);
  EXPECT_EQ(added.ranges[0], "Amount in (-inf, 10)");
  EXPECT_EQ(added.ranges[1], "Amount in (100, +inf)");
}

TEST_F(ManagementTest, ListSubstitutions) {
  auto subs = store_->ListSubstitutions();
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 1u);
  EXPECT_EQ((*subs)[0].resource, "Engineer");
  EXPECT_EQ((*subs)[0].where_clause, "Location = 'PA'");
  EXPECT_EQ((*subs)[0].substituting_resource, "Engineer");
  EXPECT_EQ((*subs)[0].substituting_where, "Location = 'Cupertino'");
  ASSERT_EQ((*subs)[0].ranges.size(), 1u);
  EXPECT_EQ((*subs)[0].ranges[0], "NumberOfLines in (-inf, 50000)");
}

TEST_F(ManagementTest, RemoveQualificationChangesEnforcement) {
  // Removing the Programmer/Engineering qualification closes the world
  // for Programming entirely.
  auto quals = store_->ListQualifications();
  ASSERT_TRUE(store_->RemoveQualification(quals[0].pid).ok());
  EXPECT_EQ(store_->num_qualification_rows(), 2u);
  auto subtypes = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(subtypes.ok());
  EXPECT_TRUE(subtypes->empty());
  EXPECT_TRUE(store_->RemoveQualification(quals[0].pid).IsNotFound());
}

TEST_F(ManagementTest, RemoveRequirementGroupRemovesIntervals) {
  auto reqs = store_->ListRequirements();
  ASSERT_TRUE(reqs.ok());
  size_t rows_before = store_->num_requirement_rows();
  size_t intervals_before = store_->num_requirement_interval_rows();
  const auto& first = (*reqs)[0];  // Programmer/Programming policy.
  ASSERT_TRUE(store_->RemoveRequirementGroup(first.group).ok());
  EXPECT_EQ(store_->num_requirement_rows(), rows_before - 1);
  EXPECT_EQ(store_->num_requirement_interval_rows(), intervals_before - 1);

  // The Experience > 5 condition no longer applies.
  rel::ParamMap spec = {{"NumberOfLines", rel::Value::Int(35000)},
                        {"Location", rel::Value::String("Mexico")}};
  auto relevant =
      store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(relevant.ok());
  ASSERT_EQ(relevant->size(), 1u);
  EXPECT_EQ((*relevant)[0].where_clause, "Language = 'Spanish'");

  EXPECT_TRUE(store_->RemoveRequirementGroup(first.group).IsNotFound());
}

TEST_F(ManagementTest, RemoveSubstitutionGroupDisablesFallback) {
  auto subs = store_->ListSubstitutions();
  ASSERT_TRUE(subs.ok());
  ASSERT_TRUE(store_->RemoveSubstitutionGroup((*subs)[0].group).ok());
  EXPECT_EQ(store_->num_substitution_rows(), 0u);

  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Engineer Where Location = 'PA' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto relevant = store_->RelevantSubstitutions(
      "Engineer", q->select->where.get(), "Programming",
      q->spec.AsParams());
  ASSERT_TRUE(relevant.ok());
  EXPECT_TRUE(relevant->empty());
}

TEST_F(ManagementTest, RemovalKeepsIndexedRetrievalConsistent) {
  // After removal, indexed and scan retrieval still agree. Both
  // ablations load before the removal and must reload after it.
  PaperRetrieval index_probes(*store_);
  PaperRetrieval full_scans(
      *store_, {PaperRetrievalOptions::Strategy::kFilterFirst,
                /*use_indexes=*/false});
  auto reqs = store_->ListRequirements();
  ASSERT_TRUE(reqs.ok());
  ASSERT_TRUE(store_->RemoveRequirementGroup((*reqs)[1].group).ok());

  rel::ParamMap spec = {{"NumberOfLines", rel::Value::Int(35000)},
                        {"Location", rel::Value::String("Mexico")}};
  auto indexed =
      index_probes.RelevantRequirements("Programmer", "Programming", spec);
  auto scanned =
      full_scans.RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(indexed->size(), scanned->size());
  for (size_t i = 0; i < indexed->size(); ++i) {
    EXPECT_EQ((*indexed)[i].pid, (*scanned)[i].pid);
  }
}

}  // namespace
}  // namespace wfrm::policy
