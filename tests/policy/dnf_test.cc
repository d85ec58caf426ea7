#include "policy/dnf.h"

#include <gtest/gtest.h>

#include <random>

#include "rel/parser.h"

namespace wfrm::policy {
namespace {

using rel::Value;

Result<std::vector<ConjunctiveRange>> Normalize(const std::string& text) {
  auto e = rel::SqlParser::ParseExpr(text);
  if (!e.ok()) return e.status();
  return NormalizeRangeClause(e->get() ? e->get() : nullptr);
}

TEST(DnfTest, NullClauseIsUnconstrained) {
  auto r = NormalizeRangeClause(nullptr);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_TRUE((*r)[0].empty());
}

TEST(DnfTest, SingleComparison) {
  auto r = Normalize("NumberOfLines > 10000");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  ASSERT_EQ((*r)[0].size(), 1u);
  EXPECT_EQ((*r)[0].at("NumberOfLines").ToString(), "(10000, +inf)");
}

TEST(DnfTest, MirroredComparisonSwapsOperator) {
  auto r = Normalize("10000 < NumberOfLines");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].at("NumberOfLines").ToString(), "(10000, +inf)");
}

TEST(DnfTest, ConjunctionGroupsByAttribute) {
  // The paper's second Figure 8 range: Amount > 1000 And Amount < 5000.
  auto r = Normalize("Amount > 1000 And Amount < 5000");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  ASSERT_EQ((*r)[0].size(), 1u);
  EXPECT_EQ((*r)[0].at("Amount").ToString(), "(1000, 5000)");
}

TEST(DnfTest, MultiAttributeConjunct) {
  auto r = Normalize("NumberOfLines > 10000 And Location = 'Mexico'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].size(), 2u);
  EXPECT_EQ((*r)[0].at("Location").ToString(), "['Mexico', 'Mexico']");
}

TEST(DnfTest, DisjunctionSplitsPolicies) {
  // §5.1: <A, R, r1 Or r2, W> divides into two stored policies.
  auto r = Normalize("Amount < 10 Or Amount > 100");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
}

TEST(DnfTest, NotEqualsSplitsIntoTwoDisjuncts) {
  // §5.1: ¬(a = v) becomes (a > v) Or (a < v).
  auto r = Normalize("Location != 'PA'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].at("Location").ToString(), "(-inf, 'PA')");
  EXPECT_EQ((*r)[1].at("Location").ToString(), "('PA', +inf)");
}

TEST(DnfTest, NegationPushdown) {
  // Not (a >= 5) == a < 5.
  auto r = Normalize("Not Amount >= 5");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].at("Amount").ToString(), "(-inf, 5)");
}

TEST(DnfTest, DeMorgan) {
  // Not (a > 5 And b > 5) == a <= 5 Or b <= 5.
  auto r = Normalize("Not (Amount > 5 And Lines > 5)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  // Not (a > 5 Or b > 5) == a <= 5 And b <= 5.
  auto r2 = Normalize("Not (Amount > 5 Or Lines > 5)");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->size(), 1u);
  EXPECT_EQ((*r2)[0].size(), 2u);
}

TEST(DnfTest, DoubleNegation) {
  auto r = Normalize("Not Not Amount = 5");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].at("Amount").ToString(), "[5, 5]");
}

TEST(DnfTest, DistributesAndOverOr) {
  // (a=1 Or a=2) And (b=1 Or b=2) -> 4 disjuncts.
  auto r = Normalize("(A = 1 Or A = 2) And (B = 1 Or B = 2)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
}

TEST(DnfTest, ContradictoryConjunctsDropped) {
  auto r = Normalize("Amount > 10 And Amount < 5");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  auto r2 = Normalize("(Amount > 10 And Amount < 5) Or Amount = 7");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
}

TEST(DnfTest, InListExpandsToEqualities) {
  auto r = Normalize("Location In ('PA', 'Cupertino')");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
}

TEST(DnfTest, NotInExpands) {
  auto r = Normalize("Location Not In ('PA')");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // < 'PA' Or > 'PA'.
}

TEST(DnfTest, AttributeNamesCaseInsensitive) {
  auto r = Normalize("amount > 1 And AMOUNT < 10");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].size(), 1u);
}

TEST(DnfTest, RejectsNonRangeConstructs) {
  EXPECT_FALSE(Normalize("Amount > Lines").ok());        // Two columns.
  EXPECT_FALSE(Normalize("Amount + 1 > 5").ok());        // Arithmetic.
  EXPECT_FALSE(Normalize("Amount = [Param]").ok());      // Parameter.
  EXPECT_FALSE(Normalize("t.Amount = 5").ok());          // Qualified.
  EXPECT_FALSE(Normalize("Amount = NULL").ok());         // NULL bound.
  EXPECT_FALSE(
      Normalize("Amount = (Select x From T)").ok());     // Subquery.
}

TEST(DnfTest, ExtractConjunctiveRangeIsConservative) {
  auto e = rel::SqlParser::ParseExpr(
      "Location = 'PA' And Experience > 5 And "
      "Language In ('ES', 'EN') And Upper(Name) = 'X'");
  ASSERT_TRUE(e.ok());
  ConjunctiveRange r = ExtractConjunctiveRange(e->get());
  // Only the simple top-level conjuncts contribute.
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at("Location").ToString(), "['PA', 'PA']");
  EXPECT_EQ(r.at("Experience").ToString(), "(5, +inf)");
}

TEST(DnfTest, ExtractFromNullIsEmpty) {
  EXPECT_TRUE(ExtractConjunctiveRange(nullptr).empty());
}

TEST(DnfTest, RangeContainsBindings) {
  auto r = Normalize("NumberOfLines > 10000");
  ASSERT_TRUE(r.ok());
  rel::ParamMap inside = {{"NumberOfLines", Value::Int(35000)}};
  rel::ParamMap outside = {{"NumberOfLines", Value::Int(5000)}};
  rel::ParamMap unbound = {{"Other", Value::Int(1)}};
  EXPECT_TRUE(*RangeContainsBindings((*r)[0], inside));
  EXPECT_FALSE(*RangeContainsBindings((*r)[0], outside));
  EXPECT_FALSE(*RangeContainsBindings((*r)[0], unbound));
  EXPECT_TRUE(*RangeContainsBindings(ConjunctiveRange{}, unbound));
}

TEST(DnfTest, RangesIntersect) {
  auto a = Normalize("Location = 'PA' And Experience > 5");
  auto b = Normalize("Location = 'PA'");
  auto c = Normalize("Location = 'Cupertino'");
  auto d = Normalize("Budget > 0");  // Disjoint attributes.
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_TRUE(*RangesIntersect((*a)[0], (*b)[0]));
  EXPECT_FALSE(*RangesIntersect((*a)[0], (*c)[0]));
  EXPECT_TRUE(*RangesIntersect((*a)[0], (*d)[0]));
}

TEST(DnfPropertyTest, DnfEquivalentToDirectEvaluation) {
  // For random range expressions and random bindings, membership in
  // some DNF disjunct must agree with direct boolean evaluation.
  std::mt19937 rng(20260704);
  std::uniform_int_distribution<int> val_dist(0, 9);
  std::uniform_int_distribution<int> op_dist(0, 5);
  std::uniform_int_distribution<int> attr_dist(0, 2);
  std::uniform_int_distribution<int> shape_dist(0, 9);
  const char* attrs[] = {"A", "B", "C"};
  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};

  // Random expression builder with And/Or/Not over atoms.
  std::function<std::string(int)> build = [&](int depth) -> std::string {
    int shape = shape_dist(rng);
    if (depth >= 3 || shape < 4) {
      return std::string(attrs[attr_dist(rng)]) + " " + ops[op_dist(rng)] +
             " " + std::to_string(val_dist(rng));
    }
    if (shape < 8) {
      std::string out = "(";
      out += build(depth + 1);
      out += shape < 6 ? " And " : " Or ";
      out += build(depth + 1);
      out += ')';
      return out;
    }
    return "Not (" + build(depth + 1) + ")";
  };

  rel::Database empty_db;
  rel::Executor exec(&empty_db);
  rel::Schema schema({{"A", rel::DataType::kInt},
                      {"B", rel::DataType::kInt},
                      {"C", rel::DataType::kInt}});

  for (int trial = 0; trial < 300; ++trial) {
    std::string text = build(0);
    auto expr = rel::SqlParser::ParseExpr(text);
    ASSERT_TRUE(expr.ok()) << text;
    auto dnf = NormalizeRangeClause(expr->get());
    ASSERT_TRUE(dnf.ok()) << text;

    for (int probe = 0; probe < 20; ++probe) {
      rel::Row row = {Value::Int(val_dist(rng)), Value::Int(val_dist(rng)),
                      Value::Int(val_dist(rng))};
      rel::ParamMap bindings = {
          {"A", row[0]}, {"B", row[1]}, {"C", row[2]}};

      bool in_dnf = false;
      for (const ConjunctiveRange& range : *dnf) {
        auto c = RangeContainsBindings(range, bindings);
        ASSERT_TRUE(c.ok());
        if (*c) {
          in_dnf = true;
          break;
        }
      }
      auto direct = exec.EvalWithRow(**expr, schema, row);
      ASSERT_TRUE(direct.ok()) << text;
      bool direct_true =
          direct->is_bool() && direct->bool_value();
      EXPECT_EQ(in_dnf, direct_true)
          << text << " with A=" << row[0].ToString()
          << " B=" << row[1].ToString() << " C=" << row[2].ToString();
    }
  }
}

}  // namespace
}  // namespace wfrm::policy
