#include "policy/rewriter.h"

#include <gtest/gtest.h>

#include "policy/policy_manager.h"
#include "rel/parser.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

// The running example of the paper: Figure 4 in, Figures 10-12 out.
constexpr char kFigure4[] =
    "Select ContactInfo From Engineer Where Location = 'PA' "
    "For Programming With NumberOfLines = 35000 And Location = 'Mexico'";

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
    rewriter_ = std::make_unique<Rewriter>(org_.get(), store_.get());
  }

  rql::RqlQuery Figure4Query() {
    auto q = rql::ParseAndBindRql(kFigure4, *org_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).ValueOrDie();
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
  std::unique_ptr<Rewriter> rewriter_;
};

TEST_F(RewriteTest, Figure10QualificationRewriting) {
  // "the initial RQL query is rewritten ... where Engineer is replaced
  // by Programmer".
  auto rewritten = rewriter_->RewriteQualification(Figure4Query());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  ASSERT_EQ(rewritten->size(), 1u);
  EXPECT_EQ(
      (*rewritten)[0].ToString(),
      "Select ContactInfo From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'");
}

TEST_F(RewriteTest, QualificationClosedWorldReturnsEmpty) {
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Secretary Where Location = 'PA' "
      "For Programming With NumberOfLines = 1 And Location = 'PA'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto rewritten = rewriter_->RewriteQualification(*q);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(rewritten->empty());
}

TEST_F(RewriteTest, Figure11RequirementRewriting) {
  // Apply requirements to the Figure 10 output.
  auto fanned = rewriter_->RewriteQualification(Figure4Query());
  ASSERT_TRUE(fanned.ok());
  ASSERT_EQ(fanned->size(), 1u);
  auto enhanced = rewriter_->RewriteRequirement((*fanned)[0]);
  ASSERT_TRUE(enhanced.ok()) << enhanced.status().ToString();
  EXPECT_EQ(
      enhanced->ToString(),
      "Select ContactInfo From Programmer Where Location = 'PA' And "
      "Experience > 5 And Language = 'Spanish' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'");
}

TEST_F(RewriteTest, RequirementRewritingWithoutRelevantPoliciesIsIdentity) {
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 5000 And Location = 'PA'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto enhanced = rewriter_->RewriteRequirement(*q);
  ASSERT_TRUE(enhanced.ok());
  EXPECT_EQ(enhanced->ToString(), q->ToString());
}

TEST_F(RewriteTest, Figure12SubstitutionRewriting) {
  auto alternatives = rewriter_->RewriteSubstitution(Figure4Query());
  ASSERT_TRUE(alternatives.ok()) << alternatives.status().ToString();
  ASSERT_EQ(alternatives->size(), 1u);
  EXPECT_EQ(
      (*alternatives)[0].ToString(),
      "Select ContactInfo From Engineer Where Location = 'Cupertino' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'");
}

TEST_F(RewriteTest, SubstitutionNotApplicableOutsideActivityRange) {
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Engineer Where Location = 'PA' "
      "For Programming With NumberOfLines = 60000 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto alternatives = rewriter_->RewriteSubstitution(*q);
  ASSERT_TRUE(alternatives.ok());
  EXPECT_TRUE(alternatives->empty());
}

TEST_F(RewriteTest, ParameterSubstitutionInRequirementWhere) {
  // The Figure 8 small-amount policy: [Requester] becomes 'alice'.
  auto q = rql::ParseAndBindRql(
      "Select ContactInfo From Manager "
      "For Approval With Amount = 500 And Requester = 'alice' And "
      "Location = 'PA'",
      *org_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto enhanced = rewriter_->RewriteRequirement(*q);
  ASSERT_TRUE(enhanced.ok()) << enhanced.status().ToString();
  EXPECT_NE(enhanced->ToString().find("Emp = 'alice'"), std::string::npos);
  EXPECT_EQ(enhanced->ToString().find("[Requester]"), std::string::npos);
}

TEST_F(RewriteTest, SubstituteParametersHelper) {
  auto e = rel::SqlParser::ParseExpr(
      "ID = (Select Mgr From ReportsTo Where Emp = [Requester]) And "
      "Amount < [Amount]");
  ASSERT_TRUE(e.ok());
  rel::ParamMap params = {{"Requester", rel::Value::String("alice")},
                          {"Amount", rel::Value::Int(1000)}};
  auto sub = SubstituteParameters(**e, params);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ((*sub)->ToString(),
            "ID = (Select Mgr From ReportsTo Where Emp = 'alice') And "
            "Amount < 1000");

  rel::ParamMap missing;
  EXPECT_FALSE(SubstituteParameters(**e, missing).ok());
}

TEST_F(RewriteTest, DisjunctiveRequirementAppliedOncePerGroup) {
  ASSERT_TRUE(store_->AddPolicyText(
                        "Require Programmer Where Experience > 1 "
                        "For Programming With NumberOfLines > 0 Or "
                        "Location = 'Mexico'")
                  .ok());
  // Spec matches BOTH disjuncts; the clause must still appear once.
  auto q = rql::ParseAndBindRql(
      "Select Id From Programmer For Programming "
      "With NumberOfLines = 10 And Location = 'Mexico'",
      *org_);
  ASSERT_TRUE(q.ok());
  auto enhanced = rewriter_->RewriteRequirement(*q);
  ASSERT_TRUE(enhanced.ok());
  std::string text = enhanced->ToString();
  size_t first = text.find("Experience > 1");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("Experience > 1", first + 1), std::string::npos);
}

TEST_F(RewriteTest, PolicyManagerPrimaryPipeline) {
  PolicyManager pm(org_.get(), store_.get());
  auto enforced = pm.EnforcePrimary(Figure4Query());
  ASSERT_TRUE(enforced.ok());
  ASSERT_EQ(enforced->queries.size(), 1u);
  EXPECT_EQ(enforced->qualified_types[0], "Programmer");
  EXPECT_NE(enforced->queries[0].ToString().find("Experience > 5"),
            std::string::npos);
}

TEST_F(RewriteTest, PolicyManagerAlternativesReenterPipeline) {
  // §2.1: an alternative query is treated as a new query — the Figure 12
  // output goes through qualification (Engineer → Programmer) and
  // requirement rewriting again.
  PolicyManager pm(org_.get(), store_.get());
  auto alternatives = pm.EnforceAlternatives(Figure4Query());
  ASSERT_TRUE(alternatives.ok());
  ASSERT_EQ(alternatives->queries.size(), 1u);
  EXPECT_EQ(
      alternatives->queries[0].ToString(),
      "Select ContactInfo From Programmer Where Location = 'Cupertino' And "
      "Experience > 5 And Language = 'Spanish' "
      "For Programming With NumberOfLines = 35000 And Location = 'Mexico'");
}

TEST_F(RewriteTest, RewritingsAgreeAcrossRetrievalModes) {
  // The store's two requirement paths: compiled tables and the reference
  // plan.
  for (bool compiled : {true, false}) {
    store_->set_compiled_enabled(compiled);
    auto fanned = rewriter_->RewriteQualification(Figure4Query());
    ASSERT_TRUE(fanned.ok());
    auto enhanced = rewriter_->RewriteRequirement((*fanned)[0]);
    ASSERT_TRUE(enhanced.ok());
    EXPECT_NE(enhanced->ToString().find("Experience > 5"),
              std::string::npos)
        << "compiled " << compiled;
  }
}

}  // namespace
}  // namespace wfrm::policy
