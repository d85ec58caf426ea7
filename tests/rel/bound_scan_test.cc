// Differential test for the executor's bound single-table scan. A
// single-relation SELECT resolves its WHERE once per execution: the
// top-level And tree flattens into conjuncts, `column op constant`
// comparisons become fixed checks and everything else is interpreted.
// BoundSelect does that binding once per statement and runs it many
// times over live rows. The oracle is the same WHERE over `From T, One`,
// where One is a one-row table sharing no column name with T; two
// relations keep that query on the nested-loop interpreter.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "rel/executor.h"

namespace wfrm::rel {
namespace {

constexpr size_t kRows = 24;

class BoundScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // T(Id, A, B, X, S, F): A never NULL; B, X, S, F sometimes NULL. X is
    // a double column that also stores ints.
    Table* t = *db_.CreateTable("T", Schema({{"Id", DataType::kInt},
                                             {"A", DataType::kInt},
                                             {"B", DataType::kInt},
                                             {"X", DataType::kDouble},
                                             {"S", DataType::kString},
                                             {"F", DataType::kBool}}));
    // Like the org resource tables: a hash index only, no ordered one.
    ASSERT_TRUE(t->CreateHashIndex("T_by_id", {"Id"}).ok());
    std::mt19937 rng(7);
    for (size_t i = 0; i < kRows; ++i) {
      Row row = RandomRow(static_cast<int64_t>(i), rng);
      ASSERT_TRUE(t->Insert(row).ok());
      rows_.push_back(std::move(row));
    }
    Table* one = *db_.CreateTable("One", Schema({{"Pad", DataType::kInt}}));
    ASSERT_TRUE(one->Insert({Value::Int(1)}).ok());

    params_["pa"] = Value::Int(4);
    params_["pd"] = Value::Double(4.5);
    params_["ps"] = Value::String("ab");
    params_["pn"] = Value::Null();
  }

  /// A T row with id `id`: A never NULL; B, X, S, F sometimes NULL. X
  /// is a double column that also stores ints.
  static Row RandomRow(int64_t id, std::mt19937& rng) {
    static const char* kStrings[] = {"a", "b", "ab", "ba", "abc", ""};
    auto maybe_null = [&](Value v) {
      return rng() % 5 == 0 ? Value::Null() : std::move(v);
    };
    Value x = rng() % 2 == 0
                  ? Value::Int(static_cast<int64_t>(rng() % 10))
                  : Value::Double(static_cast<double>(rng() % 20) / 2);
    return {Value::Int(id),
            Value::Int(static_cast<int64_t>(rng() % 10)),
            maybe_null(Value::Int(static_cast<int64_t>(rng() % 10))),
            maybe_null(std::move(x)),
            maybe_null(Value::String(kStrings[rng() % 6])),
            maybe_null(Value::Bool(rng() % 2 == 0))};
  }

  /// `Select <items> From <from> Where <where>`.
  static SelectPtr MakeSelect(const Expr* where, std::vector<std::string> from,
                              const std::vector<std::string>& items) {
    auto stmt = std::make_unique<SelectStatement>();
    for (const std::string& item : items) {
      SelectItem si;
      auto dot = item.find('.');
      si.expr = dot == std::string::npos
                    ? MakeColumnRef(item)
                    : MakeColumnRef(item.substr(0, dot), item.substr(dot + 1));
      stmt->items.push_back(std::move(si));
    }
    for (std::string& name : from) stmt->from.push_back(TableRef{name, ""});
    if (where != nullptr) stmt->where = where->Clone();
    return stmt;
  }

  /// Runs `Select <items> From <from> Where <where>`.
  Result<ResultSet> Run(const Expr* where, std::vector<std::string> from,
                        const std::vector<std::string>& items) {
    SelectPtr stmt = MakeSelect(where, std::move(from), items);
    Executor exec(&db_);
    auto rs = exec.Execute(*stmt, params_);
    stats_ = exec.stats();
    return rs;
  }

  /// Binds `where` over T once and runs it three times, changing T
  /// between runs (one row rewritten in place, an extra row inserted,
  /// then deleted): every run must match the oracle over the live rows.
  /// T is restored afterwards.
  void ExpectBoundRunsTrackOracle(const Expr& where, uint32_t seed) {
    const std::vector<std::string> items = {"Id", "A", "T.X", "S", "B", "F"};
    Table* t = db_.GetTable("T");
    BoundSelect bound(db_, MakeSelect(&where, {"T"}, items), params_);
    ASSERT_TRUE(bound.bound());
    std::mt19937 rng(seed);
    const RowId changed = rng() % kRows;
    std::optional<RowId> extra;
    for (int run = 0; run < 3; ++run) {
      Executor exec(&db_);
      auto got = bound.Run(exec);
      auto want = Run(&where, {"T", "One"}, items);
      ASSERT_EQ(got.status().ToString(), want.status().ToString())
          << "run " << run << " Where " << where.ToString();
      if (got.ok()) {
        ASSERT_EQ(got->schema.ToString(), want->schema.ToString());
        ASSERT_EQ(got->rows, want->rows)
            << "run " << run << " Where " << where.ToString();
      }
      if (run == 0) {
        ASSERT_TRUE(
            t->Update(changed, RandomRow(static_cast<int64_t>(changed), rng))
                .ok());
        extra = *t->Insert(RandomRow(kRows, rng));
      } else if (run == 1) {
        ASSERT_TRUE(t->Delete(*extra).ok());
      }
    }
    ASSERT_TRUE(t->Update(changed, rows_[changed]).ok());
  }

  /// Checks the bound scan against the nested-loop oracle: same status
  /// (code and message) or same schema, rows and order.
  void ExpectSameAsOracle(const Expr& where) {
    const std::vector<std::string> items = {"Id", "A", "T.X", "S", "B", "F"};
    auto got = Run(&where, {"T"}, items);
    auto want = Run(&where, {"T", "One"}, items);
    ASSERT_EQ(got.status().ToString(), want.status().ToString())
        << "Where " << where.ToString();
    if (!got.ok()) return;
    const ResultSet& g = *got;
    const ResultSet& w = *want;
    ASSERT_EQ(g.schema.ToString(), w.schema.ToString());
    ASSERT_EQ(g.rows, w.rows) << "Where " << where.ToString();
    // Every output row is its source row, column for column.
    for (const Row& row : g.rows) {
      const Row& src = rows_[static_cast<size_t>(row[0].int_value())];
      EXPECT_EQ(row, (Row{src[0], src[1], src[3], src[4], src[2], src[5]}));
    }
    ++compared_ok_;
  }

  Status StatusOf(const Expr& where) {
    return Run(&where, {"T"}, {"Id"}).status();
  }

  Database db_;
  ParamMap params_;
  std::vector<Row> rows_;
  ExecStats stats_;
  size_t compared_ok_ = 0;
};

// ---- Random WHERE generator ----------------------------------------------

class WhereGen {
 public:
  explicit WhereGen(uint32_t seed) : rng_(seed) {}

  ExprPtr Tree() {
    size_t n = 1 + Pick(12);
    std::vector<ExprPtr> leaves;
    for (size_t i = 0; i < n; ++i) leaves.push_back(Conjunct());
    switch (Pick(3)) {
      case 0: {  // Left-deep: ((a And b) And c) ...
        ExprPtr tree = std::move(leaves[0]);
        for (size_t i = 1; i < n; ++i) {
          tree = MakeBinary(BinaryOp::kAnd, std::move(tree),
                            std::move(leaves[i]));
        }
        return tree;
      }
      case 1: {  // Right-deep: a And (b And (c ...)).
        ExprPtr tree = std::move(leaves[n - 1]);
        for (size_t i = n - 1; i-- > 0;) {
          tree = MakeBinary(BinaryOp::kAnd, std::move(leaves[i]),
                            std::move(tree));
        }
        return tree;
      }
      default:
        return Balanced(&leaves, 0, n);
    }
  }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  ExprPtr Balanced(std::vector<ExprPtr>* leaves, size_t lo, size_t hi) {
    if (hi - lo == 1) return std::move((*leaves)[lo]);
    size_t mid = lo + (hi - lo) / 2;
    return MakeBinary(BinaryOp::kAnd, Balanced(leaves, lo, mid),
                      Balanced(leaves, mid, hi));
  }

  BinaryOp Comparison() {
    static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};
    return kOps[Pick(6)];
  }

  /// A reference to `name`, sometimes qualified (in either case).
  ExprPtr Column(const std::string& name) {
    switch (Pick(4)) {
      case 0:
        return MakeColumnRef("T", name);
      case 1:
        return MakeColumnRef("t", name);
      default:
        return MakeColumnRef(name);
    }
  }

  static ExprPtr Param(const std::string& name) {
    return std::make_unique<ParameterExpr>(name);
  }

  /// A constant for a column of the given kind: literal or bound
  /// [param], now and then NULL, rarely of an incomparable kind.
  ExprPtr Constant(bool numeric) {
    size_t r = Pick(40);
    if (r == 0) {  // Compare TypeError.
      return MakeLiteral(numeric ? Value::String("a") : Value::Int(1));
    }
    if (r < 4) return MakeLiteral(Value::Null());
    if (r < 6) return Param("pn");
    if (r < 14) return Param(numeric ? (Pick(2) ? "pa" : "pd") : "ps");
    if (!numeric) {
      static const char* kStrings[] = {"a", "ab", "b", "abc", ""};
      return MakeLiteral(Value::String(kStrings[Pick(5)]));
    }
    if (Pick(3) == 0) {
      return MakeLiteral(Value::Double(static_cast<double>(Pick(20)) / 2));
    }
    return MakeLiteral(Value::Int(static_cast<int64_t>(Pick(10))));
  }

  /// `column op constant` in either operand order.
  ExprPtr Bindable() {
    static const char* kCols[] = {"A", "B", "X", "S", "Id"};
    std::string col = kCols[Pick(5)];
    ExprPtr c = Column(col);
    ExprPtr k = Constant(col != "S");
    if (Pick(2) == 0) {
      return MakeBinary(Comparison(), std::move(c), std::move(k));
    }
    return MakeBinary(Comparison(), std::move(k), std::move(c));
  }

  ExprPtr Conjunct() {
    size_t r = Pick(100);
    if (r < 55) return Bindable();
    if (r < 60) {
      return MakeBinary(BinaryOp::kOr, Bindable(), Bindable());
    }
    if (r < 65) {
      std::vector<ExprPtr> list;
      for (size_t i = 0, n = 1 + Pick(3); i < n; ++i) {
        list.push_back(Pick(4) == 0
                           ? MakeLiteral(Value::Null())
                           : MakeLiteral(Value::Int(
                                 static_cast<int64_t>(Pick(10)))));
      }
      return std::make_unique<InListExpr>(Column(Pick(2) ? "A" : "B"),
                                          std::move(list));
    }
    if (r < 70) {
      static const char* kPatterns[] = {"a%", "%b", "_", "%", "ab%"};
      return MakeBinary(BinaryOp::kLike, Column("S"),
                        MakeLiteral(Value::String(kPatterns[Pick(5)])));
    }
    if (r < 75) {
      return std::make_unique<UnaryExpr>(UnaryOp::kNot, Bindable());
    }
    if (r < 80) {  // Arithmetic inside a comparison.
      return MakeBinary(
          Comparison(),
          MakeBinary(Pick(2) ? BinaryOp::kAdd : BinaryOp::kMul, Column("A"),
                     Pick(2) ? Param("pa") : Column("B")),
          MakeLiteral(Value::Int(static_cast<int64_t>(Pick(20)))));
    }
    if (r < 85) {  // Column against column.
      return MakeBinary(Comparison(), Column("A"),
                        Column(Pick(2) ? "B" : "X"));
    }
    if (r < 90) return Column("F");  // Boolean (or NULL) column.
    switch (r) {
      case 90:
      case 91:  // Non-boolean conjunct.
        return MakeBinary(BinaryOp::kAdd, Column("A"),
                          MakeLiteral(Value::Int(1)));
      case 92:
        return Column("S");
      case 93:
      case 94:  // Unbound parameter.
        return MakeBinary(Comparison(), Column("A"), Param("missing"));
      case 95:
      case 96:  // Wrong qualifier.
        return MakeBinary(Comparison(), MakeColumnRef("Z", "A"),
                          MakeLiteral(Value::Int(3)));
      default:  // A column the table lacks.
        return MakeBinary(Comparison(), MakeColumnRef("Nope"),
                          MakeLiteral(Value::Int(3)));
    }
  }

  std::mt19937 rng_;
};

TEST_F(BoundScanTest, RandomAndTreesMatchNestedLoopOracle) {
  for (uint32_t seed = 0; seed < 1500; ++seed) {
    WhereGen gen(seed);
    ExprPtr where = gen.Tree();
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameAsOracle(*where);
    if (HasFatalFailure()) return;
    ExpectBoundRunsTrackOracle(*where, seed);
    if (HasFatalFailure()) return;
  }
  // The generator must not make every query fail.
  EXPECT_GT(compared_ok_, 500u);
}

// ---- One fixed case per contract bullet -----------------------------------

ExprPtr And(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Cmp(const char* col, BinaryOp op, Value v) {
  return MakeComparison(col, op, std::move(v));
}
ExprPtr NonBoolean() {
  return MakeBinary(BinaryOp::kAdd, MakeColumnRef("A"),
                    MakeLiteral(Value::Int(1)));
}

TEST_F(BoundScanTest, TypeErrorAfterTruePrefixIsReported) {
  ExprPtr where = And(Cmp("A", BinaryOp::kGe, Value::Int(0)), NonBoolean());
  Status st = StatusOf(*where);
  EXPECT_TRUE(st.IsTypeError()) << st.ToString();
  EXPECT_NE(st.message().find("boolean operator applied to"),
            std::string::npos);
  ExpectSameAsOracle(*where);
}

TEST_F(BoundScanTest, TypeErrorAfterFalsePrefixIsNot) {
  ExprPtr where = And(Cmp("A", BinaryOp::kLt, Value::Int(0)), NonBoolean());
  auto rs = Run(where.get(), {"T"}, {"Id"});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
  ExpectSameAsOracle(*where);
}

TEST_F(BoundScanTest, NullThenFalseIsFalse) {
  // NULL leaves the row unknown but keeps evaluating: an error after it
  // is reported...
  ExprPtr unknown_then_error =
      And(Cmp("A", BinaryOp::kEq, Value::Null()), NonBoolean());
  EXPECT_TRUE(StatusOf(*unknown_then_error).IsTypeError());
  ExpectSameAsOracle(*unknown_then_error);
  // ...while a false after it ends the row before the error.
  ExprPtr false_ends_row =
      And(And(Cmp("A", BinaryOp::kEq, Value::Null()),
              Cmp("A", BinaryOp::kLt, Value::Int(0))),
          NonBoolean());
  auto rs = Run(false_ends_row.get(), {"T"}, {"Id"});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
  ExpectSameAsOracle(*false_ends_row);
}

TEST_F(BoundScanTest, UnknownConjunctDropsTheRow) {
  ExprPtr where = And(Cmp("A", BinaryOp::kGe, Value::Int(0)),
                      MakeBinary(BinaryOp::kGe, MakeColumnRef("A"),
                                 std::make_unique<ParameterExpr>("pn")));
  auto rs = Run(where.get(), {"T"}, {"Id"});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(BoundScanTest, CompareErrorKeepsInterpreterStatus) {
  // Both operand orders: the message names the kinds left to right.
  ExprPtr col_left = Cmp("S", BinaryOp::kGt, Value::Int(1));
  ExprPtr col_right = MakeBinary(BinaryOp::kLt, MakeLiteral(Value::Int(1)),
                                 MakeColumnRef("S"));
  Status left = StatusOf(*col_left);
  Status right = StatusOf(*col_right);
  EXPECT_TRUE(left.IsTypeError());
  EXPECT_EQ(left.message(), "cannot compare STRING with INT");
  EXPECT_EQ(right.message(), "cannot compare INT with STRING");
  ExpectSameAsOracle(*col_left);
  ExpectSameAsOracle(*col_right);
}

TEST_F(BoundScanTest, WholeWhereNonBooleanOnlyFilters) {
  ExprPtr where = NonBoolean();
  auto rs = Run(where.get(), {"T"}, {"Id"});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
  ExpectSameAsOracle(*where);
}

TEST_F(BoundScanTest, ColumnItemsKeepInferredTypes) {
  // X is declared double but row 0 may hold an int; a column item takes
  // the type of its first non-null output value, a star item the
  // declared one.
  ExprPtr where = Cmp("X", BinaryOp::kGe, Value::Int(0));
  auto rs = Run(where.get(), {"T"}, {"X"});
  ASSERT_TRUE(rs.ok());
  ASSERT_FALSE(rs->rows.empty());
  EXPECT_EQ(rs->schema.column(0).type, rs->rows[0][0].type());

  Table* u = *db_.CreateTable("U", Schema({{"D", DataType::kDouble}}));
  ASSERT_TRUE(u->Insert({Value::Int(3)}).ok());
  Executor exec(&db_);
  auto items = exec.Query("Select D From U Where D > 1");
  auto star = exec.Query("Select * From U Where D > 1");
  ASSERT_TRUE(items.ok() && star.ok());
  EXPECT_EQ(items->schema.column(0).type, DataType::kInt);
  EXPECT_EQ(star->schema.column(0).type, DataType::kDouble);
}

TEST_F(BoundScanTest, LevelItemStaysThePseudoColumn) {
  // Under CONNECT BY an unqualified LEVEL names the hierarchy depth even
  // when the table has a column of that name; only H.Level reads it.
  Table* h = *db_.CreateTable("H", Schema({{"Emp", DataType::kString},
                                           {"Mgr", DataType::kString},
                                           {"Level", DataType::kInt}}));
  ASSERT_TRUE(h->Insert({Value::String("a"), Value::String("root"),
                         Value::Int(7)})
                  .ok());
  ASSERT_TRUE(
      h->Insert({Value::String("b"), Value::String("a"), Value::Int(7)})
          .ok());
  Executor exec(&db_);
  auto rs = exec.Query(
      "Select Emp, Level, H.Level From H Start with Mgr = 'root' "
      "Connect by Prior Emp = Mgr");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0], (Row{Value::String("a"), Value::Int(1),
                              Value::Int(7)}));
  EXPECT_EQ(rs->rows[1], (Row{Value::String("b"), Value::Int(2),
                              Value::Int(7)}));
}

TEST_F(BoundScanTest, StatsCountAFullScan) {
  ExprPtr where = And(Cmp("A", BinaryOp::kGe, Value::Int(5)),
                      Cmp("Id", BinaryOp::kLt, Value::Int(100)));
  auto rs = Run(where.get(), {"T"}, {"Id"});
  ASSERT_TRUE(rs.ok());
  size_t expected = 0;
  for (const Row& row : rows_) expected += row[1].int_value() >= 5 ? 1 : 0;
  EXPECT_EQ(rs->rows.size(), expected);
  EXPECT_EQ(stats_.rows_scanned, kRows);
  EXPECT_EQ(stats_.rows_filtered, expected);
  EXPECT_EQ(stats_.index_probes, 0u);
}

}  // namespace
}  // namespace wfrm::rel
