#include <gtest/gtest.h>

#include "rel/executor.h"
#include "rel/parser.h"

namespace wfrm::rel {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t = *db_.CreateTable("Emp", Schema({{"Name", DataType::kString},
                                               {"Dept", DataType::kString},
                                               {"Salary", DataType::kInt}}));
    ASSERT_TRUE(t->CreateOrderedIndex("by_dept_sal", {"Dept", "Salary"}).ok());
    for (int i = 0; i < 10; ++i) {
      std::string name = "e";
      name += std::to_string(i);
      ASSERT_TRUE(t->Insert({Value::String(name),
                             Value::String(i % 2 ? "eng" : "ops"),
                             Value::Int(i * 100)})
                      .ok());
    }
    auto view = SqlParser::ParseSelect("Select Name From Emp Where Dept = 'eng'");
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(db_.CreateView("Engineers", {"Name"},
                               std::move(view).ValueOrDie())
                    .ok());
  }

  std::string MustExplain(std::string_view sql, bool use_indexes = true) {
    ExecOptions opts;
    opts.use_indexes = use_indexes;
    Executor exec(&db_, opts);
    auto stmt = SqlParser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto plan = exec.Explain(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ValueOr("");
  }

  Database db_;
};

TEST_F(ExplainTest, IndexedPointQueryShowsIndexScan) {
  std::string plan = MustExplain(
      "Select Name From Emp Where Dept = 'eng' And Salary = 300");
  EXPECT_NE(plan.find("IndexScan Emp using by_dept_sal"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("eq prefix: 2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter: Dept = 'eng' And Salary = 300"),
            std::string::npos);
}

TEST_F(ExplainTest, RangeProbeReported) {
  std::string plan = MustExplain(
      "Select Name From Emp Where Dept = 'eng' And Salary > 100");
  EXPECT_NE(plan.find("eq prefix: 1, range on next column"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, ScanWhenIndexesDisabledOrUnusable) {
  std::string no_idx = MustExplain(
      "Select Name From Emp Where Dept = 'eng'", /*use_indexes=*/false);
  EXPECT_NE(no_idx.find("SeqScan Emp (10 rows)"), std::string::npos) << no_idx;

  // Salary alone is not a prefix of (Dept, Salary).
  std::string unusable =
      MustExplain("Select Name From Emp Where Salary = 300");
  EXPECT_NE(unusable.find("SeqScan Emp"), std::string::npos) << unusable;
}

TEST_F(ExplainTest, JoinViewAggregateSortUnionNodes) {
  std::string plan = MustExplain(
      "Select e.Dept, Count(*) As n From Emp e, Engineers g "
      "Where e.Name = g.Name Group by Dept Order By n Desc Limit 1 "
      "Union Select Dept, Salary From Emp");
  // An equi-join on e.Name = g.Name now picks the hash join.
  EXPECT_NE(plan.find("HashJoin (1 key(s))"), std::string::npos) << plan;
  EXPECT_NE(plan.find("View Engineers (materialized, 5 rows)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Aggregate group by Dept"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort [n Desc]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Limit 1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Union"), std::string::npos) << plan;
  EXPECT_NE(plan.find("as e"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ConnectByNodeReported) {
  Table* r = *db_.CreateTable(
      "R", Schema({{"Emp", DataType::kString}, {"Mgr", DataType::kString}}));
  ASSERT_TRUE(r->Insert({Value::String("a"), Value::String("b")}).ok());
  std::string plan = MustExplain(
      "Select Mgr From R Start with Emp = 'a' Connect by Prior Mgr = Emp");
  EXPECT_NE(plan.find("ConnectBy start with Emp = 'a'"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, UnknownRelationFails) {
  Executor exec(&db_);
  auto stmt = SqlParser::ParseSelect("Select x From Nowhere");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(exec.Explain(**stmt).ok());
}

TEST_F(ExplainTest, ExplainDoesNotCountProbeStats) {
  Executor exec(&db_);
  auto stmt = SqlParser::ParseSelect(
      "Select Name From Emp Where Dept = 'eng' And Salary = 300");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(exec.Explain(**stmt).ok());
  EXPECT_EQ(exec.stats().index_probes, 0u);
}

}  // namespace
}  // namespace wfrm::rel
