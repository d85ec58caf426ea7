#include "rel/executor.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "rel/parser.h"
#include "rel/prepared.h"

namespace wfrm::rel {

namespace {

/// One relation bound in a FROM list: a name, a schema, and row storage.
/// Base tables alias the Table's rows; views materialize. Materialized
/// rows are shared so repeated references to the same view within one
/// statement (e.g. both arms of the Figure 15 union) alias one snapshot.
struct Relation {
  std::string binding_name;
  Schema schema;
  const Table* table = nullptr;  // Set for base tables.
  std::shared_ptr<const std::vector<Row>> materialized;  // Set for views.

  size_t NumRows() const {
    return table ? table->num_slots() : materialized->size();
  }
};

/// A row under evaluation: one (schema, row) binding per FROM entry.
struct Binding {
  const std::string* name;
  const Schema* schema;
  const Row* row;
};

struct Scope {
  std::vector<Binding> bindings;
  const Scope* parent = nullptr;
  const ParamMap* params = nullptr;
  // CONNECT BY context.
  std::optional<int64_t> level;
  const Row* prior_row = nullptr;  // Parent row for PRIOR evaluation.
};

/// The row tuples passing WHERE, one Row* per FROM relation, stored flat
/// so a single-relation scan adds a pointer per row, not a vector.
class JoinedRows {
 public:
  explicit JoinedRows(size_t width) : width_(width) {}

  size_t size() const { return cells_.size() / width_; }
  /// Tuple `j`: index it by relation.
  const Row* const* operator[](size_t j) const { return &cells_[j * width_]; }

  void Add(const Row* row) { cells_.push_back(row); }
  void Add(const Row* left, const Row* right) {
    cells_.push_back(left);
    cells_.push_back(right);
  }
  void Add(const std::vector<const Row*>& tuple) {
    cells_.insert(cells_.end(), tuple.begin(), tuple.end());
  }

 private:
  size_t width_;
  std::vector<const Row*> cells_;
};

/// One top-level WHERE conjunct of a single-relation scan. A
/// `column op constant` comparison, in either operand order, is bound
/// once: the constant is a literal or a [param] bound in the
/// statement's ParamMap. Any other conjunct keeps `constant == nullptr`
/// and goes through the interpreter.
struct Conjunct {
  const Expr* expr = nullptr;
  const Value* constant = nullptr;
  size_t column = 0;
  BinaryOp op = BinaryOp::kEq;
  bool column_on_left = true;
};

/// One output column of a non-aggregate projection.
struct OutCol {
  std::string name;
  const Expr* expr;     // Null for star-expanded columns.
  bool direct = false;  // Read (rel_index, col_index), no Eval.
  size_t rel_index = 0;
  size_t col_index = 0;
};

bool IsTrue(const Value& v) { return v.is_bool() && v.bool_value(); }

/// Applies comparison `op` to a three-way Value::Compare result.
bool ComparisonHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:  // kGe; callers pass comparisons only.
      return c >= 0;
  }
}

/// Appends the leaves of the And tree rooted at `e`, in order.
void FlattenAnd(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op() == BinaryOp::kAnd) {
      FlattenAnd(b.left(), out);
      FlattenAnd(b.right(), out);
      return;
    }
  }
  out->push_back(&e);
}

/// SQL LIKE matcher: '%' matches any sequence, '_' any single character.
/// Iterative two-pointer algorithm with backtracking on the last '%'.
bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

class Executor::Impl {
 public:
  Impl(const Executor& exec) : exec_(exec), db_(*exec.db_) {}

  Result<ResultSet> Execute(const SelectStatement& stmt, const Scope* outer,
                            const ParamMap& params) {
    WFRM_ASSIGN_OR_RETURN(ResultSet rs, ExecuteOne(stmt, outer, params));
    // UNION chain: set semantics over the concatenation.
    if (stmt.union_next) {
      if (!stmt.union_next->order_by.empty() || stmt.union_next->limit) {
        return Status::ExecutionError(
            "Order By / Limit must appear on the outermost select of a "
            "Union");
      }
      WFRM_ASSIGN_OR_RETURN(ResultSet next,
                            Execute(*stmt.union_next, outer, params));
      if (next.schema.num_columns() != rs.schema.num_columns()) {
        return Status::ExecutionError(
            "Union arms have different column counts (" +
            std::to_string(rs.schema.num_columns()) + " vs " +
            std::to_string(next.schema.num_columns()) + ")");
      }
      for (auto& row : next.rows) rs.rows.push_back(std::move(row));
      Dedup(&rs);
    } else if (stmt.distinct) {
      Dedup(&rs);
    }
    // For a Union, ORDER BY applies to the combined result and resolves
    // against the output schema; plain selects were already sorted inside
    // ExecuteOne with source columns in scope.
    if (!stmt.order_by.empty() && stmt.union_next) {
      WFRM_RETURN_NOT_OK(Sort(stmt.order_by, outer, params, &rs));
    }
    if (stmt.limit && rs.rows.size() > *stmt.limit) {
      rs.rows.resize(*stmt.limit);
    }
    return rs;
  }

  Status Sort(const std::vector<OrderKey>& keys, const Scope* outer,
              const ParamMap& params, ResultSet* rs) {
    // Pre-compute the key tuple per row (errors surface here, not inside
    // the comparator).
    static const std::string kRowBinding = "";
    std::vector<std::pair<std::vector<Value>, size_t>> keyed;
    keyed.reserve(rs->rows.size());
    for (size_t i = 0; i < rs->rows.size(); ++i) {
      Scope scope;
      scope.parent = outer;
      scope.params = &params;
      scope.bindings.push_back(
          Binding{&kRowBinding, &rs->schema, &rs->rows[i]});
      std::vector<Value> tuple;
      tuple.reserve(keys.size());
      for (const OrderKey& key : keys) {
        WFRM_ASSIGN_OR_RETURN(Value v, Eval(*key.expr, scope));
        tuple.push_back(std::move(v));
      }
      keyed.push_back({std::move(tuple), i});
    }
    SortKeyed(keys, &keyed, rs);
    return Status::OK();
  }

  /// Stable-sorts rs->rows by the pre-computed key tuples.
  void SortKeyed(const std::vector<OrderKey>& keys,
                 std::vector<std::pair<std::vector<Value>, size_t>>* keyed,
                 ResultSet* rs) {
    std::stable_sort(keyed->begin(), keyed->end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < keys.size(); ++k) {
                         const Value& va = a.first[k];
                         const Value& vb = b.first[k];
                         if (va < vb) return !keys[k].descending;
                         if (vb < va) return keys[k].descending;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(rs->rows.size());
    for (const auto& [tuple, i] : *keyed) {
      sorted.push_back(std::move(rs->rows[i]));
    }
    rs->rows = std::move(sorted);
  }

  Result<Value> Eval(const Expr& expr, const Scope& scope) {
    switch (expr.kind()) {
      case Expr::Kind::kLiteral:
        return static_cast<const LiteralExpr&>(expr).value();
      case Expr::Kind::kParameter: {
        const auto& p = static_cast<const ParameterExpr&>(expr);
        for (const Scope* s = &scope; s != nullptr; s = s->parent) {
          if (s->params != nullptr) {
            auto it = s->params->find(p.name());
            if (it != s->params->end()) return it->second;
          }
        }
        return Status::ExecutionError("unbound parameter [" + p.name() + "]");
      }
      case Expr::Kind::kColumnRef:
        return EvalColumn(static_cast<const ColumnRefExpr&>(expr), scope);
      case Expr::Kind::kUnary:
        return EvalUnary(static_cast<const UnaryExpr&>(expr), scope);
      case Expr::Kind::kBinary:
        return EvalBinary(static_cast<const BinaryExpr&>(expr), scope);
      case Expr::Kind::kInList:
        return EvalInList(static_cast<const InListExpr&>(expr), scope);
      case Expr::Kind::kSubquery:
        return EvalSubquery(static_cast<const SubqueryExpr&>(expr), scope);
      case Expr::Kind::kInSubquery:
        return EvalInSubquery(static_cast<const InSubqueryExpr&>(expr), scope);
      case Expr::Kind::kFunction:
        return EvalFunction(static_cast<const FunctionExpr&>(expr), scope);
    }
    return Status::Internal("unknown expression kind");
  }

 private:
  // ---- Column and scope resolution -------------------------------------

  Result<Value> EvalColumn(const ColumnRefExpr& ref, const Scope& scope) {
    for (const Scope* s = &scope; s != nullptr; s = s->parent) {
      // LEVEL pseudo-column inside CONNECT BY evaluation.
      if (ref.qualifier().empty() && s->level.has_value() &&
          EqualsIgnoreCase(ref.name(), "level")) {
        return Value::Int(*s->level);
      }
      const Binding* found = nullptr;
      std::optional<size_t> found_col;
      for (const Binding& b : s->bindings) {
        if (!ref.qualifier().empty() &&
            !EqualsIgnoreCase(*b.name, ref.qualifier())) {
          continue;
        }
        if (auto col = b.schema->FindColumn(ref.name())) {
          if (found != nullptr) {
            return Status::ExecutionError("ambiguous column reference '" +
                                          ref.ToString() + "'");
          }
          found = &b;
          found_col = col;
        }
      }
      if (found != nullptr) return (*found->row)[*found_col];
    }
    return Status::NotFound("column '" + ref.ToString() +
                            "' not found in scope");
  }

  // ---- No-copy operand resolution --------------------------------------

  /// Resolves a column reference to the row cell it names, or nullptr
  /// when resolution needs the slow path (LEVEL pseudo-column, absent or
  /// ambiguous reference — EvalColumn carries the diagnostics).
  const Value* FindColumnCell(const ColumnRefExpr& ref, const Scope& scope) {
    for (const Scope* s = &scope; s != nullptr; s = s->parent) {
      if (ref.qualifier().empty() && s->level.has_value() &&
          EqualsIgnoreCase(ref.name(), "level")) {
        return nullptr;
      }
      const Binding* found = nullptr;
      std::optional<size_t> found_col;
      for (const Binding& b : s->bindings) {
        if (!ref.qualifier().empty() &&
            !EqualsIgnoreCase(*b.name, ref.qualifier())) {
          continue;
        }
        if (auto col = b.schema->FindColumn(ref.name())) {
          if (found != nullptr) return nullptr;
          found = &b;
          found_col = col;
        }
      }
      if (found != nullptr) return &(*found->row)[*found_col];
    }
    return nullptr;
  }

  /// Resolves a leaf operand (literal, bound parameter, column) to the
  /// Value it already lives in. Returns nullptr when the operand is not
  /// a leaf or needs the copying slow path for its diagnostics.
  const Value* TryEvalRef(const Expr& expr, const Scope& scope) {
    switch (expr.kind()) {
      case Expr::Kind::kLiteral:
        return &static_cast<const LiteralExpr&>(expr).value();
      case Expr::Kind::kParameter: {
        const auto& p = static_cast<const ParameterExpr&>(expr);
        for (const Scope* s = &scope; s != nullptr; s = s->parent) {
          if (s->params != nullptr) {
            auto it = s->params->find(p.name());
            if (it != s->params->end()) return &it->second;
          }
        }
        return nullptr;
      }
      case Expr::Kind::kColumnRef:
        return FindColumnCell(static_cast<const ColumnRefExpr&>(expr), scope);
      default:
        return nullptr;
    }
  }

  Result<Value> EvalUnary(const UnaryExpr& e, const Scope& scope) {
    if (e.op() == UnaryOp::kPrior) {
      if (scope.prior_row == nullptr || scope.bindings.size() != 1) {
        return Status::ExecutionError(
            "Prior is only valid inside a Connect By condition");
      }
      Scope prior_scope = scope;
      Binding b = scope.bindings[0];
      b.row = scope.prior_row;
      prior_scope.bindings = {b};
      prior_scope.prior_row = nullptr;
      // LEVEL under PRIOR refers to the parent's level.
      if (scope.level) prior_scope.level = *scope.level - 1;
      return Eval(e.operand(), prior_scope);
    }
    WFRM_ASSIGN_OR_RETURN(Value v, Eval(e.operand(), scope));
    if (e.op() == UnaryOp::kNot) {
      if (v.is_null()) return Value::Null();
      if (!v.is_bool()) {
        return Status::TypeError("Not applied to non-boolean " + v.ToString());
      }
      return Value::Bool(!v.bool_value());
    }
    // kNeg
    if (v.is_null()) return Value::Null();
    if (v.is_int()) return Value::Int(-v.int_value());
    if (v.is_double()) return Value::Double(-v.double_value());
    return Status::TypeError("unary minus applied to " + v.ToString());
  }

  Result<Value> EvalBinary(const BinaryExpr& e, const Scope& scope) {
    // Kleene logic with short-circuiting for And/Or.
    if (e.op() == BinaryOp::kAnd || e.op() == BinaryOp::kOr) {
      WFRM_ASSIGN_OR_RETURN(Value l, Eval(e.left(), scope));
      bool is_and = e.op() == BinaryOp::kAnd;
      if (l.is_bool()) {
        if (is_and && !l.bool_value()) return Value::Bool(false);
        if (!is_and && l.bool_value()) return Value::Bool(true);
      } else if (!l.is_null()) {
        return Status::TypeError("boolean operator applied to " + l.ToString());
      }
      WFRM_ASSIGN_OR_RETURN(Value r, Eval(e.right(), scope));
      if (r.is_bool()) {
        if (is_and && !r.bool_value()) return Value::Bool(false);
        if (!is_and && r.bool_value()) return Value::Bool(true);
      } else if (!r.is_null()) {
        return Status::TypeError("boolean operator applied to " + r.ToString());
      }
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(is_and ? (l.bool_value() && r.bool_value())
                                : (l.bool_value() || r.bool_value()));
    }

    // Comparison leaves dominate residual WHERE rechecks (hundreds of
    // candidate rows × dozens of interval predicates per retrieval).
    // When both operands already live somewhere — a row cell, a literal,
    // a bound parameter — compare in place instead of recursing through
    // Eval, which copies each operand's Value (string cells included).
    if (IsComparison(e.op())) {
      const Value* lp = TryEvalRef(e.left(), scope);
      const Value* rp = lp != nullptr ? TryEvalRef(e.right(), scope) : nullptr;
      Value lv;
      Value rv;
      if (rp == nullptr) {
        WFRM_ASSIGN_OR_RETURN(lv, Eval(e.left(), scope));
        WFRM_ASSIGN_OR_RETURN(rv, Eval(e.right(), scope));
        lp = &lv;
        rp = &rv;
      }
      if (lp->is_null() || rp->is_null()) return Value::Null();
      WFRM_ASSIGN_OR_RETURN(int c, lp->Compare(*rp));
      return Value::Bool(ComparisonHolds(e.op(), c));
    }

    WFRM_ASSIGN_OR_RETURN(Value l, Eval(e.left(), scope));
    WFRM_ASSIGN_OR_RETURN(Value r, Eval(e.right(), scope));

    if (e.op() == BinaryOp::kLike) {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_string() || !r.is_string()) {
        return Status::TypeError("Like requires string operands, got " +
                                 l.ToString() + " Like " + r.ToString());
      }
      return Value::Bool(LikeMatch(l.string_value(), r.string_value()));
    }

    // Arithmetic.
    if (l.is_null() || r.is_null()) return Value::Null();
    if (e.op() == BinaryOp::kAdd && l.is_string() && r.is_string()) {
      return Value::String(l.string_value() + r.string_value());
    }
    if (!l.is_numeric() || !r.is_numeric()) {
      return Status::TypeError("arithmetic on non-numeric operands " +
                               l.ToString() + " and " + r.ToString());
    }
    bool both_int = l.is_int() && r.is_int();
    switch (e.op()) {
      case BinaryOp::kAdd:
        return both_int ? Value::Int(l.int_value() + r.int_value())
                        : Value::Double(l.AsDouble() + r.AsDouble());
      case BinaryOp::kSub:
        return both_int ? Value::Int(l.int_value() - r.int_value())
                        : Value::Double(l.AsDouble() - r.AsDouble());
      case BinaryOp::kMul:
        return both_int ? Value::Int(l.int_value() * r.int_value())
                        : Value::Double(l.AsDouble() * r.AsDouble());
      case BinaryOp::kDiv:
        if (both_int) {
          if (r.int_value() == 0) {
            return Status::ExecutionError("integer division by zero");
          }
          return Value::Int(l.int_value() / r.int_value());
        }
        return Value::Double(l.AsDouble() / r.AsDouble());
      default:
        return Status::Internal("unexpected binary operator");
    }
  }

  Result<Value> EvalInList(const InListExpr& e, const Scope& scope) {
    WFRM_ASSIGN_OR_RETURN(Value needle, Eval(e.needle(), scope));
    if (needle.is_null()) return Value::Null();
    bool saw_null = false;
    for (const auto& item : e.haystack()) {
      WFRM_ASSIGN_OR_RETURN(Value v, Eval(*item, scope));
      if (v.is_null()) {
        saw_null = true;
        continue;
      }
      WFRM_ASSIGN_OR_RETURN(int c, needle.Compare(v));
      if (c == 0) return Value::Bool(true);
    }
    return saw_null ? Value::Null() : Value::Bool(false);
  }

  Result<Value> EvalSubquery(const SubqueryExpr& e, const Scope& scope) {
    WFRM_ASSIGN_OR_RETURN(ResultSet rs,
                          Execute(e.select(), &scope, ParamMap{}));
    if (rs.schema.num_columns() != 1) {
      return Status::ExecutionError(
          "scalar subquery must produce exactly one column");
    }
    if (rs.rows.empty()) return Value::Null();
    if (rs.rows.size() > 1) {
      return Status::ExecutionError("scalar subquery produced " +
                                    std::to_string(rs.rows.size()) + " rows");
    }
    return rs.rows[0][0];
  }

  Result<Value> EvalInSubquery(const InSubqueryExpr& e, const Scope& scope) {
    WFRM_ASSIGN_OR_RETURN(Value needle, Eval(e.needle(), scope));
    if (needle.is_null()) return Value::Null();
    WFRM_ASSIGN_OR_RETURN(ResultSet rs,
                          Execute(e.select(), &scope, ParamMap{}));
    if (rs.schema.num_columns() != 1) {
      return Status::ExecutionError(
          "In-subquery must produce exactly one column");
    }
    bool saw_null = false;
    for (const Row& row : rs.rows) {
      if (row[0].is_null()) {
        saw_null = true;
        continue;
      }
      WFRM_ASSIGN_OR_RETURN(int c, needle.Compare(row[0]));
      if (c == 0) return Value::Bool(true);
    }
    return saw_null ? Value::Null() : Value::Bool(false);
  }

  Result<Value> EvalFunction(const FunctionExpr& e, const Scope& scope) {
    if (e.star()) {
      return Status::ExecutionError(
          "aggregate '" + e.name() + "(*)' outside a select list");
    }
    std::vector<Value> args;
    args.reserve(e.args().size());
    for (const auto& a : e.args()) {
      WFRM_ASSIGN_OR_RETURN(Value v, Eval(*a, scope));
      args.push_back(std::move(v));
    }
    auto require_args = [&](size_t n) -> Status {
      if (args.size() != n) {
        return Status::ExecutionError(e.name() + " takes " +
                                      std::to_string(n) + " argument(s)");
      }
      return Status::OK();
    };
    if (EqualsIgnoreCase(e.name(), "upper")) {
      WFRM_RETURN_NOT_OK(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (!args[0].is_string()) return Status::TypeError("Upper needs string");
      return Value::String(AsciiToUpper(args[0].string_value()));
    }
    if (EqualsIgnoreCase(e.name(), "lower")) {
      WFRM_RETURN_NOT_OK(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (!args[0].is_string()) return Status::TypeError("Lower needs string");
      return Value::String(AsciiToLower(args[0].string_value()));
    }
    if (EqualsIgnoreCase(e.name(), "length")) {
      WFRM_RETURN_NOT_OK(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (!args[0].is_string()) return Status::TypeError("Length needs string");
      return Value::Int(static_cast<int64_t>(args[0].string_value().size()));
    }
    if (EqualsIgnoreCase(e.name(), "abs")) {
      WFRM_RETURN_NOT_OK(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (args[0].is_int()) return Value::Int(std::abs(args[0].int_value()));
      if (args[0].is_double())
        return Value::Double(std::fabs(args[0].double_value()));
      return Status::TypeError("Abs needs a numeric argument");
    }
    return Status::ExecutionError("unknown function '" + e.name() + "'");
  }

  // ---- FROM resolution ---------------------------------------------------

  Result<Relation> ResolveRelation(const TableRef& ref, const Scope* outer,
                                   const ParamMap& params) {
    Relation rel;
    rel.binding_name = ref.BindingName();
    if (const Table* t = db_.GetTable(ref.name)) {
      rel.schema = t->schema();
      rel.table = t;
      return rel;
    }
    if (const ViewDef* v = db_.GetView(ref.name)) {
      // Within one top-level execution a view materializes once: the
      // Figure 15 union references Relevant_Policies in both arms and the
      // catalog cannot change mid-statement. Correlated contexts
      // (outer != nullptr) bypass the memo — their rows may depend on the
      // outer row bindings.
      const bool memoizable = outer == nullptr;
      if (memoizable) {
        auto it = view_memo_.find(v->name);
        if (it != view_memo_.end()) {
          rel.schema = it->second.schema;
          rel.materialized = it->second.rows;
          return rel;
        }
      }
      WFRM_ASSIGN_OR_RETURN(ResultSet rs, Execute(*v->query, outer, params));
      if (!v->column_names.empty()) {
        if (v->column_names.size() != rs.schema.num_columns()) {
          return Status::ExecutionError(
              "view '" + v->name + "' declares " +
              std::to_string(v->column_names.size()) + " columns but query "
              "produces " + std::to_string(rs.schema.num_columns()));
        }
        Schema renamed;
        for (size_t i = 0; i < v->column_names.size(); ++i) {
          renamed.AddColumn({v->column_names[i], rs.schema.column(i).type});
        }
        rs.schema = std::move(renamed);
      }
      rel.schema = std::move(rs.schema);
      rel.materialized =
          std::make_shared<const std::vector<Row>>(std::move(rs.rows));
      if (memoizable) {
        view_memo_[v->name] = ViewSnapshot{rel.schema, rel.materialized};
      }
      return rel;
    }
    return Status::NotFound("relation '" + ref.name + "' does not exist");
  }

  // ---- Index access path ---------------------------------------------------

  /// One conjunct group of the probe normalization: column constraints
  /// that must all hold for the group to match.
  struct ConjGroup {
    std::vector<std::pair<size_t, Value>> equals;
    std::vector<std::pair<size_t, Bound>> lowers;
    std::vector<std::pair<size_t, Bound>> uppers;
  };

  /// A disjunction of conjunct groups whose union covers (a superset of)
  /// the rows matching the WHERE clause; the residual WHERE re-check in
  /// JoinRelations removes false positives. `indexable == false` means no
  /// covering superset could be derived, forcing a full scan.
  struct ProbeSet {
    bool indexable = false;
    std::vector<ConjGroup> groups;
  };

  /// Cap on the disjunct fan-out: beyond this an And keeps only one side
  /// (still a superset) and an Or or In-list gives up.
  static constexpr size_t kMaxProbeGroups = 256;

  /// Normalizes a WHERE subtree into a small DNF of indexable probes.
  /// `col op const` and `col In (const, ...)` are leaves; And crosses the
  /// two sides' groups (or keeps one side — a superset — when the other
  /// is non-indexable or the product is too large); Or unions groups and
  /// is poisoned by any non-indexable disjunct, because the probe union
  /// must cover every row the Or can accept.
  ProbeSet NormalizeProbes(const Expr& e, const Relation& rel,
                           const Scope& const_scope) {
    ProbeSet none;
    if (e.kind() == Expr::Kind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (b.op() == BinaryOp::kAnd) {
        ProbeSet l = NormalizeProbes(b.left(), rel, const_scope);
        ProbeSet r = NormalizeProbes(b.right(), rel, const_scope);
        if (!l.indexable) return r;
        if (!r.indexable) return l;
        if (l.groups.size() * r.groups.size() > kMaxProbeGroups) {
          return l.groups.size() <= r.groups.size() ? l : r;
        }
        ProbeSet out;
        out.indexable = true;
        out.groups.reserve(l.groups.size() * r.groups.size());
        for (const ConjGroup& lg : l.groups) {
          for (const ConjGroup& rg : r.groups) {
            ConjGroup g = lg;
            g.equals.insert(g.equals.end(), rg.equals.begin(),
                            rg.equals.end());
            g.lowers.insert(g.lowers.end(), rg.lowers.begin(),
                            rg.lowers.end());
            g.uppers.insert(g.uppers.end(), rg.uppers.begin(),
                            rg.uppers.end());
            out.groups.push_back(std::move(g));
          }
        }
        return out;
      }
      if (b.op() == BinaryOp::kOr) {
        ProbeSet l = NormalizeProbes(b.left(), rel, const_scope);
        if (!l.indexable) return none;
        ProbeSet r = NormalizeProbes(b.right(), rel, const_scope);
        if (!r.indexable) return none;
        if (l.groups.size() + r.groups.size() > kMaxProbeGroups) return none;
        l.groups.insert(l.groups.end(),
                        std::make_move_iterator(r.groups.begin()),
                        std::make_move_iterator(r.groups.end()));
        return l;
      }
      if (IsComparison(b.op()) && b.op() != BinaryOp::kNe) {
        const Expr* col_side = &b.left();
        const Expr* val_side = &b.right();
        BinaryOp op = b.op();
        if (col_side->kind() != Expr::Kind::kColumnRef) {
          std::swap(col_side, val_side);
          op = SwapComparison(op);
        }
        if (col_side->kind() != Expr::Kind::kColumnRef) return none;
        if (val_side->kind() != Expr::Kind::kLiteral &&
            val_side->kind() != Expr::Kind::kParameter) {
          return none;
        }
        const auto& ref = static_cast<const ColumnRefExpr&>(*col_side);
        if (!ref.qualifier().empty() &&
            !EqualsIgnoreCase(ref.qualifier(), rel.binding_name)) {
          return none;
        }
        auto col = rel.schema.FindColumn(ref.name());
        if (!col) return none;
        auto value = Eval(*val_side, const_scope);
        if (!value.ok() || value.ValueOrDie().is_null()) return none;
        const Value& v = value.ValueOrDie();
        ConjGroup g;
        switch (op) {
          case BinaryOp::kEq:
            g.equals.push_back({*col, v});
            break;
          case BinaryOp::kLt:
            g.uppers.push_back({*col, Bound{v, false}});
            break;
          case BinaryOp::kLe:
            g.uppers.push_back({*col, Bound{v, true}});
            break;
          case BinaryOp::kGt:
            g.lowers.push_back({*col, Bound{v, false}});
            break;
          case BinaryOp::kGe:
            g.lowers.push_back({*col, Bound{v, true}});
            break;
          default:
            return none;
        }
        ProbeSet out;
        out.indexable = true;
        out.groups.push_back(std::move(g));
        return out;
      }
      return none;
    }
    if (e.kind() == Expr::Kind::kInList) {
      // `col In (c1, ..., ck)` becomes k equality probes — the shape the
      // Figure 13 qualification fan-out produces.
      const auto& in = static_cast<const InListExpr&>(e);
      if (in.needle().kind() != Expr::Kind::kColumnRef) return none;
      const auto& ref = static_cast<const ColumnRefExpr&>(in.needle());
      if (!ref.qualifier().empty() &&
          !EqualsIgnoreCase(ref.qualifier(), rel.binding_name)) {
        return none;
      }
      auto col = rel.schema.FindColumn(ref.name());
      if (!col) return none;
      if (in.haystack().size() > kMaxProbeGroups) return none;
      ProbeSet out;
      out.indexable = true;
      for (const auto& item : in.haystack()) {
        if (item->kind() != Expr::Kind::kLiteral &&
            item->kind() != Expr::Kind::kParameter) {
          return none;
        }
        auto value = Eval(*item, const_scope);
        if (!value.ok()) return none;
        // A null element never equates to a non-null needle; skip it.
        if (value.ValueOrDie().is_null()) continue;
        ConjGroup g;
        g.equals.push_back({*col, value.ValueOrDie()});
        out.groups.push_back(std::move(g));
      }
      if (out.groups.empty()) return none;
      return out;
    }
    return none;
  }

  /// The access path chosen for a single-table scan.
  struct IndexChoice {
    const OrderedIndex* index;
    IndexProbe probe;
  };

  /// Row ids to visit for a single-table scan, using the best ordered
  /// index when allowed; nullopt means "full scan". A single probe keeps
  /// the index's key order; a multi-probe union is deduped and restored
  /// to slot order (the order a full scan would visit).
  std::optional<std::vector<RowId>> TryIndexAccess(const Relation& rel,
                                                   const Expr* where,
                                                   const Scope& const_scope) {
    std::optional<std::vector<IndexChoice>> choices =
        ChooseMultiIndexAccess(rel, where, const_scope);
    if (!choices) return std::nullopt;
    std::vector<RowId> rids;
    for (const IndexChoice& choice : *choices) {
      ++exec_.stats_.index_probes;
      std::vector<RowId> part = choice.index->Scan(choice.probe);
      if (rids.empty()) {
        rids = std::move(part);
      } else {
        rids.insert(rids.end(), part.begin(), part.end());
      }
    }
    if (choices->size() > 1) {
      std::sort(rids.begin(), rids.end());
      rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
    }
    exec_.stats_.rows_from_index += rids.size();
    return rids;
  }

  /// Access-path selection only (shared by execution and Explain): one
  /// IndexChoice per probe group, or nullopt for a full scan. Every
  /// group must be servable by some index — the union of probes has to
  /// cover every disjunct or it is not a superset of the WHERE result.
  std::optional<std::vector<IndexChoice>> ChooseMultiIndexAccess(
      const Relation& rel, const Expr* where, const Scope& const_scope) {
    // Without an ordered index no probe group can be served, so skip the
    // normalization (org resource tables carry only their Id hash index).
    if (!exec_.options_.use_indexes || rel.table == nullptr ||
        where == nullptr || rel.table->ordered_indexes().empty()) {
      return std::nullopt;
    }
    ProbeSet ps = NormalizeProbes(*where, rel, const_scope);
    if (!ps.indexable || ps.groups.empty()) return std::nullopt;
    std::vector<IndexChoice> choices;
    choices.reserve(ps.groups.size());
    for (const ConjGroup& g : ps.groups) {
      std::optional<IndexChoice> c = ChooseIndexForGroup(rel, g);
      if (!c) return std::nullopt;
      // Distinct conjunct groups often lower to the same physical probe
      // (e.g. the inclusive/exclusive bound disjuncts of an interval
      // check differ only in residual columns). Scanning it twice would
      // double the fetched rows just to dedup them afterwards.
      bool duplicate = false;
      for (const IndexChoice& seen : choices) {
        if (SameChoice(seen, *c)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) choices.push_back(std::move(*c));
    }
    return choices;
  }

  static bool SameBound(const std::optional<Bound>& a,
                        const std::optional<Bound>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a) return true;
    return a->inclusive == b->inclusive && !(a->value < b->value) &&
           !(b->value < a->value);
  }

  static bool SameChoice(const IndexChoice& a, const IndexChoice& b) {
    if (a.index != b.index) return false;
    if (a.probe.equals.size() != b.probe.equals.size()) return false;
    for (size_t i = 0; i < a.probe.equals.size(); ++i) {
      if (a.probe.equals[i] < b.probe.equals[i] ||
          b.probe.equals[i] < a.probe.equals[i]) {
        return false;
      }
    }
    return SameBound(a.probe.lower, b.probe.lower) &&
           SameBound(a.probe.upper, b.probe.upper);
  }

  /// Picks the best ordered index and probe for one conjunct group.
  std::optional<IndexChoice> ChooseIndexForGroup(const Relation& rel,
                                                 const ConjGroup& group) {
    const auto& equals = group.equals;
    const auto& lowers = group.lowers;
    const auto& uppers = group.uppers;
    if (equals.empty() && lowers.empty() && uppers.empty()) {
      return std::nullopt;
    }
    std::vector<size_t> eq_cols;
    for (const auto& [col, v] : equals) eq_cols.push_back(col);

    // Candidate range columns: any column carrying a bound.
    std::vector<size_t> range_candidates;
    for (const auto& [col, b] : lowers) range_candidates.push_back(col);
    for (const auto& [col, b] : uppers) range_candidates.push_back(col);
    std::sort(range_candidates.begin(), range_candidates.end());
    range_candidates.erase(
        std::unique(range_candidates.begin(), range_candidates.end()),
        range_candidates.end());

    const OrderedIndex* best = nullptr;
    std::optional<size_t> best_range;
    {
      // Prefer an index that can take a range column after the equality
      // prefix; fall back to equality-only.
      for (size_t rc : range_candidates) {
        const OrderedIndex* idx = rel.table->FindBestOrderedIndex(eq_cols, rc);
        if (idx != nullptr) {
          // Only pick it over `best` if it actually uses the range column.
          best = idx;
          best_range = rc;
          break;
        }
      }
      if (best == nullptr) {
        best = rel.table->FindBestOrderedIndex(eq_cols, std::nullopt);
        best_range = std::nullopt;
      }
    }
    if (best == nullptr) return std::nullopt;

    // Build the probe along the index's key order.
    IndexProbe probe;
    const auto& key_cols = best->key_columns();
    size_t k = 0;
    for (; k < key_cols.size(); ++k) {
      auto it = std::find_if(equals.begin(), equals.end(),
                             [&](const auto& p) { return p.first == key_cols[k]; });
      if (it == equals.end()) break;
      probe.equals.push_back(it->second);
    }
    if (probe.equals.empty() && k < key_cols.size()) {
      // No equality prefix: a pure range on the first key column is still
      // usable; otherwise the index is useless.
      bool has_bound_on_first =
          std::any_of(lowers.begin(), lowers.end(),
                      [&](const auto& p) { return p.first == key_cols[0]; }) ||
          std::any_of(uppers.begin(), uppers.end(),
                      [&](const auto& p) { return p.first == key_cols[0]; });
      if (!has_bound_on_first) return std::nullopt;
    }
    if (k < key_cols.size()) {
      size_t range_col = key_cols[k];
      // Tightest bounds on the range column.
      for (const auto& [col, b] : lowers) {
        if (col != range_col) continue;
        if (!probe.lower || probe.lower->value < b.value ||
            (probe.lower->value == b.value && !b.inclusive)) {
          probe.lower = b;
        }
      }
      for (const auto& [col, b] : uppers) {
        if (col != range_col) continue;
        if (!probe.upper || b.value < probe.upper->value ||
            (probe.upper->value == b.value && !b.inclusive)) {
          probe.upper = b;
        }
      }
    }
    return IndexChoice{best, std::move(probe)};
  }

  // ---- Explain ---------------------------------------------------------------

 public:
  Result<std::string> Explain(const SelectStatement& stmt, const Scope* outer,
                              const ParamMap& params, int depth) {
    std::string pad(static_cast<size_t>(depth) * 2, ' ');
    std::string out;
    // Projection header.
    out += pad + "Select";
    if (stmt.distinct) out += " Distinct";
    {
      std::string items;
      for (const auto& item : stmt.items) {
        if (!items.empty()) items += ", ";
        items += item.ToString();
      }
      out += " [" + items + "]\n";
    }

    bool has_aggregate =
        !stmt.group_by.empty() ||
        std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& it) {
          return it.aggregate != AggregateFn::kNone;
        });
    if (has_aggregate) {
      out += pad + "  Aggregate";
      if (!stmt.group_by.empty()) {
        out += " group by " + Join(stmt.group_by, ", ");
      }
      out += "\n";
    }
    if (!stmt.order_by.empty()) {
      std::string keys;
      for (const auto& k : stmt.order_by) {
        if (!keys.empty()) keys += ", ";
        keys += k.expr->ToString();
        if (k.descending) keys += " Desc";
      }
      out += pad + "  Sort [" + keys + "]\n";
    }
    if (stmt.limit) {
      out += pad + "  Limit " + std::to_string(*stmt.limit) + "\n";
    }
    if (stmt.where) {
      out += pad + "  Filter: " + stmt.where->ToString() + "\n";
    }
    if (stmt.connect_by) {
      out += pad + "  ConnectBy start with " +
             stmt.connect_by->start_with->ToString() + " connect by " +
             stmt.connect_by->connect->ToString() + "\n";
    }
    Scope const_scope;
    const_scope.parent = outer;
    const_scope.params = &params;
    std::vector<Relation> rels;
    rels.reserve(stmt.from.size());
    for (const TableRef& ref : stmt.from) {
      WFRM_ASSIGN_OR_RETURN(Relation rel, ResolveRelation(ref, outer, params));
      rels.push_back(std::move(rel));
    }
    if (stmt.from.size() > 1) {
      std::vector<std::pair<size_t, size_t>> equi;
      if (rels.size() == 2 && stmt.where != nullptr) {
        CollectEquiJoinKeys(*stmt.where, rels, &equi);
      }
      if (equi.empty()) {
        out += pad + "  NestedLoopJoin\n";
      } else {
        out += pad + "  HashJoin (" + std::to_string(equi.size()) +
               " key(s))\n";
      }
    }
    for (size_t ri = 0; ri < rels.size(); ++ri) {
      const TableRef& ref = stmt.from[ri];
      const Relation& rel = rels[ri];
      std::string line = pad + "  ";
      if (rel.table == nullptr) {
        line += "View " + ref.name + " (materialized, " +
                std::to_string(rel.materialized->size()) + " rows)";
      } else {
        std::optional<std::vector<IndexChoice>> choices;
        if (stmt.from.size() == 1 && !stmt.connect_by) {
          choices = ChooseMultiIndexAccess(rel, stmt.where.get(), const_scope);
        }
        if (choices && choices->size() == 1) {
          const IndexChoice& choice = choices->front();
          line += "IndexScan " + ref.name + " using " +
                  choice.index->name() + " (eq prefix: " +
                  std::to_string(choice.probe.equals.size());
          if (choice.probe.lower || choice.probe.upper) {
            line += ", range on next column";
          }
          line += ")";
        } else if (choices) {
          line += "MultiIndexScan " + ref.name + " using " +
                  choices->front().index->name() + " (" +
                  std::to_string(choices->size()) + " probes)";
        } else {
          line += "SeqScan " + ref.name + " (" +
                  std::to_string(rel.table->num_rows()) + " rows)";
        }
      }
      if (!ref.alias.empty()) line += " as " + ref.alias;
      out += line + "\n";
    }

    if (stmt.union_next) {
      out += pad + "Union\n";
      WFRM_ASSIGN_OR_RETURN(
          std::string rest, Explain(*stmt.union_next, outer, params, depth));
      out += rest;
    }
    return out;
  }

 private:
  // ---- Statement execution -------------------------------------------------

  Result<ResultSet> ExecuteOne(const SelectStatement& stmt, const Scope* outer,
                               const ParamMap& params) {
    if (stmt.from.empty()) {
      return Status::ExecutionError("statement has no From clause");
    }
    std::vector<Relation> relations;
    relations.reserve(stmt.from.size());
    for (const TableRef& ref : stmt.from) {
      WFRM_ASSIGN_OR_RETURN(Relation rel, ResolveRelation(ref, outer, params));
      relations.push_back(std::move(rel));
    }

    // Scope used for evaluating constant-only subexpressions (access path).
    Scope const_scope;
    const_scope.parent = outer;
    const_scope.params = &params;

    // Enumerate joined rows (or hierarchy rows for CONNECT BY).
    JoinedRows joined(relations.size());
    std::vector<int64_t> levels;  // Parallel to joined when connect_by.

    if (stmt.connect_by) {
      if (relations.size() != 1) {
        return Status::ExecutionError(
            "Connect By requires a single From relation");
      }
      WFRM_RETURN_NOT_OK(
          RunConnectBy(stmt, relations[0], outer, params, &joined, &levels));
    } else {
      WFRM_RETURN_NOT_OK(
          JoinRelations(stmt, relations, outer, params, &joined));
    }

    // WHERE has filtered `joined` already, in RunConnectBy or JoinRelations.

    // Build output.
    bool has_aggregate =
        !stmt.group_by.empty() ||
        std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& it) {
          return it.aggregate != AggregateFn::kNone;
        });

    if (has_aggregate) {
      return Aggregate(stmt, relations, joined, levels, outer, params);
    }
    if (stmt.having) {
      return Status::ExecutionError(
          "Having requires Group By or aggregates");
    }
    return Project(stmt, relations, joined, levels, outer, params);
  }

  /// Runs a statement bound by BoundSelect: the same candidate rows,
  /// bound filter and projection as ExecuteOne's single-table path, with
  /// the binding done once per BoundSelect instead of once per call.
  Result<ResultSet> RunBound(const SelectStatement& stmt,
                             const ParamMap& params,
                             const std::vector<Relation>& relations,
                             const std::vector<Conjunct>& conjuncts,
                             const std::vector<OutCol>& out_cols) {
    Scope const_scope;
    const_scope.params = &params;
    std::vector<const Row*> candidates;
    CollectCandidates(relations[0], stmt.where.get(), const_scope,
                      &candidates);
    JoinedRows joined(1);
    WFRM_RETURN_NOT_OK(FilterBound(conjuncts, relations, candidates, nullptr,
                                   params, &joined));
    return EmitRows(out_cols, relations, joined, {}, nullptr, params);
  }

  /// The rows of `rel` a scan visits: an index access path when `where`
  /// allows one (single-table scans only), otherwise every row.
  void CollectCandidates(const Relation& rel, const Expr* where,
                         const Scope& const_scope,
                         std::vector<const Row*>* out) {
    std::optional<std::vector<RowId>> rids;
    if (where != nullptr) rids = TryIndexAccess(rel, where, const_scope);
    if (rids) {
      for (RowId rid : *rids) {
        if (rel.table->IsLive(rid)) out->push_back(&rel.table->row(rid));
      }
    } else if (rel.table != nullptr) {
      out->reserve(rel.table->num_rows());
      rel.table->ForEach([&](RowId, const Row& row) {
        out->push_back(&row);
        ++exec_.stats_.rows_scanned;
      });
    } else {
      for (const Row& row : *rel.materialized) {
        out->push_back(&row);
        ++exec_.stats_.rows_scanned;
      }
    }
  }

  /// Enumerates the rows (or row tuples) passing WHERE: a bound scan for
  /// a single relation, which may take an index access path, a hash join
  /// for two-relation equi-joins, otherwise a nested loop with WHERE
  /// applied at the innermost level.
  Status JoinRelations(const SelectStatement& stmt,
                       const std::vector<Relation>& relations,
                       const Scope* outer, const ParamMap& params,
                       JoinedRows* joined) {
    Scope const_scope;
    const_scope.parent = outer;
    const_scope.params = &params;

    // Candidate row lists per relation.
    std::vector<std::vector<const Row*>> candidates(relations.size());
    for (size_t i = 0; i < relations.size(); ++i) {
      CollectCandidates(relations[i],
                        relations.size() == 1 ? stmt.where.get() : nullptr,
                        const_scope, &candidates[i]);
    }

    if (relations.size() == 1) {
      return FilterBound(BindConjuncts(stmt.where.get(), relations, params),
                         relations, candidates[0], outer, params, joined);
    }

    // Two-relation equi-joins (the Figure 15 Relevant_Policies ⋈
    // Relevant_Filter shape) build a key map over the inner side instead
    // of enumerating the cross product.
    if (relations.size() == 2 && stmt.where != nullptr) {
      std::vector<std::pair<size_t, size_t>> keys;
      CollectEquiJoinKeys(*stmt.where, relations, &keys);
      if (!keys.empty()) {
        return HashJoin(stmt, relations, candidates, keys, outer, params,
                        joined);
      }
    }

    // Depth-first enumeration of the cross product.
    std::vector<const Row*> current(relations.size(), nullptr);
    Status st = Status::OK();
    std::function<void(size_t)> recurse = [&](size_t depth) {
      if (!st.ok()) return;
      if (depth == relations.size()) {
        if (stmt.where) {
          Scope scope;
          scope.parent = outer;
          scope.params = &params;
          for (size_t i = 0; i < relations.size(); ++i) {
            scope.bindings.push_back(Binding{&relations[i].binding_name,
                                             &relations[i].schema, current[i]});
          }
          auto v = Eval(*stmt.where, scope);
          if (!v.ok()) {
            st = v.status();
            return;
          }
          if (!IsTrue(v.ValueOrDie())) return;
        }
        ++exec_.stats_.rows_filtered;
        joined->Add(current);
        return;
      }
      for (const Row* row : candidates[depth]) {
        current[depth] = row;
        recurse(depth + 1);
        if (!st.ok()) return;
      }
    };
    recurse(0);
    return st;
  }

  /// The (relation index, column index) that `ref` names among the
  /// statement's own FROM relations — the innermost step of EvalColumn,
  /// done once per statement. Nullopt on no match or ambiguity.
  static std::optional<std::pair<size_t, size_t>> ResolveLocalColumn(
      const ColumnRefExpr& ref, const std::vector<Relation>& relations) {
    std::optional<std::pair<size_t, size_t>> found;
    for (size_t r = 0; r < relations.size(); ++r) {
      if (!ref.qualifier().empty() &&
          !EqualsIgnoreCase(ref.qualifier(), relations[r].binding_name)) {
        continue;
      }
      if (auto col = relations[r].schema.FindColumn(ref.name())) {
        if (found) return std::nullopt;  // Ambiguous.
        found = {r, *col};
      }
    }
    return found;
  }

  static Conjunct BindConjunct(const Expr& e,
                               const std::vector<Relation>& relations,
                               const ParamMap& params) {
    Conjunct c;
    c.expr = &e;
    if (e.kind() != Expr::Kind::kBinary) return c;
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (!IsComparison(b.op())) return c;
    const bool column_on_left = b.left().kind() == Expr::Kind::kColumnRef;
    const Expr& col_side = column_on_left ? b.left() : b.right();
    const Expr& val_side = column_on_left ? b.right() : b.left();
    if (col_side.kind() != Expr::Kind::kColumnRef) return c;
    auto col = ResolveLocalColumn(static_cast<const ColumnRefExpr&>(col_side),
                                  relations);
    if (!col) return c;
    if (val_side.kind() == Expr::Kind::kLiteral) {
      c.constant = &static_cast<const LiteralExpr&>(val_side).value();
    } else if (val_side.kind() == Expr::Kind::kParameter) {
      auto it = params.find(static_cast<const ParameterExpr&>(val_side).name());
      if (it != params.end()) c.constant = &it->second;
    }
    c.column = col->second;
    c.op = b.op();
    c.column_on_left = column_on_left;
    return c;
  }

  /// The bind half of a single-relation scan: WHERE resolved once
  /// instead of once per row. The top-level And tree flattens in order
  /// into conjuncts; `column op constant` ones bind to a cell and a
  /// constant. Binding never fails: whatever does not bind is
  /// interpreted per row, where the interpreter reports its errors.
  static std::vector<Conjunct> BindConjuncts(
      const Expr* where, const std::vector<Relation>& relations,
      const ParamMap& params) {
    std::vector<Conjunct> conjuncts;
    if (where != nullptr) {
      std::vector<const Expr*> leaves;
      FlattenAnd(*where, &leaves);
      conjuncts.reserve(leaves.size());
      for (const Expr* leaf : leaves) {
        conjuncts.push_back(BindConjunct(*leaf, relations, params));
      }
    }
    return conjuncts;
  }

  /// The run half: filters one relation's candidate rows by the bound
  /// conjuncts, comparing bound ones in place and interpreting the rest
  /// in one reused Scope. Row order, stats and status match the
  /// interpreter.
  Status FilterBound(const std::vector<Conjunct>& conjuncts,
                     const std::vector<Relation>& relations,
                     const std::vector<const Row*>& candidates,
                     const Scope* outer, const ParamMap& params,
                     JoinedRows* joined) {
    Scope scope;
    scope.parent = outer;
    scope.params = &params;
    scope.bindings.push_back(
        Binding{&relations[0].binding_name, &relations[0].schema, nullptr});
    for (const Row* row : candidates) {
      scope.bindings[0].row = row;
      WFRM_ASSIGN_OR_RETURN(bool keep, Matches(conjuncts, *row, scope));
      if (!keep) continue;
      ++exec_.stats_.rows_filtered;
      joined->Add(row);
    }
    return Status::OK();
  }

  /// The And chain's Kleene logic over `conjuncts` for the row bound in
  /// `scope`. The first false conjunct ends the row, so later conjuncts
  /// and their errors never run; NULL (unknown) keeps evaluating but
  /// drops the row. A non-boolean conjunct is the And node's TypeError,
  /// or just a filtered row when it is the whole WHERE.
  Result<bool> Matches(const std::vector<Conjunct>& conjuncts, const Row& row,
                       const Scope& scope) {
    bool unknown = false;
    for (const Conjunct& c : conjuncts) {
      if (c.constant != nullptr) {
        const Value& cell = row[c.column];
        if (cell.is_null() || c.constant->is_null()) {
          unknown = true;
          continue;
        }
        WFRM_ASSIGN_OR_RETURN(int cmp, c.column_on_left
                                           ? cell.Compare(*c.constant)
                                           : c.constant->Compare(cell));
        if (!ComparisonHolds(c.op, cmp)) return false;
        continue;
      }
      WFRM_ASSIGN_OR_RETURN(Value v, Eval(*c.expr, scope));
      if (v.is_null()) {
        unknown = true;
      } else if (!v.is_bool()) {
        if (conjuncts.size() == 1) return false;
        return Status::TypeError("boolean operator applied to " +
                                 v.ToString());
      } else if (!v.bool_value()) {
        return false;
      }
    }
    return !unknown;
  }

  /// Collects top-level ANDed `a.col = b.col` conjuncts joining the two
  /// relations, as (column in relations[0], column in relations[1])
  /// pairs. Conjuncts that do not fit the shape are simply not collected
  /// — they stay covered by the residual WHERE evaluation.
  void CollectEquiJoinKeys(const Expr& e,
                           const std::vector<Relation>& relations,
                           std::vector<std::pair<size_t, size_t>>* keys) {
    if (e.kind() != Expr::Kind::kBinary) return;
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op() == BinaryOp::kAnd) {
      CollectEquiJoinKeys(b.left(), relations, keys);
      CollectEquiJoinKeys(b.right(), relations, keys);
      return;
    }
    if (b.op() != BinaryOp::kEq) return;
    if (b.left().kind() != Expr::Kind::kColumnRef ||
        b.right().kind() != Expr::Kind::kColumnRef) {
      return;
    }
    auto l = ResolveLocalColumn(static_cast<const ColumnRefExpr&>(b.left()),
                                relations);
    auto r = ResolveLocalColumn(static_cast<const ColumnRefExpr&>(b.right()),
                                relations);
    if (!l || !r) return;
    if (l->first == 0 && r->first == 1) {
      keys->push_back({l->second, r->second});
    } else if (l->first == 1 && r->first == 0) {
      keys->push_back({r->second, l->second});
    }
  }

  /// Equi-join of two relations: builds a key → rows map over the inner
  /// (second) relation, probes it per outer row, and re-checks the full
  /// WHERE on every matched pair (3VL-safe; non-equi residual conjuncts
  /// are handled there). Rows with a null key component are skipped on
  /// both sides — an equality with Null is never true. Emission order
  /// matches the nested-loop enumeration: outer rows in candidate order,
  /// matches in inner candidate order.
  Status HashJoin(const SelectStatement& stmt,
                  const std::vector<Relation>& relations,
                  const std::vector<std::vector<const Row*>>& candidates,
                  const std::vector<std::pair<size_t, size_t>>& keys,
                  const Scope* outer, const ParamMap& params,
                  JoinedRows* joined) {
    std::map<IndexKey, std::vector<const Row*>, IndexKeyLess> inner;
    for (const Row* row : candidates[1]) {
      IndexKey key;
      key.reserve(keys.size());
      bool has_null = false;
      for (const auto& [lcol, rcol] : keys) {
        const Value& v = (*row)[rcol];
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key.push_back(v);
      }
      if (has_null) continue;
      inner[std::move(key)].push_back(row);
    }

    Scope scope;
    scope.parent = outer;
    scope.params = &params;
    scope.bindings.push_back(Binding{&relations[0].binding_name,
                                     &relations[0].schema, nullptr});
    scope.bindings.push_back(Binding{&relations[1].binding_name,
                                     &relations[1].schema, nullptr});
    for (const Row* lrow : candidates[0]) {
      IndexKey key;
      key.reserve(keys.size());
      bool has_null = false;
      for (const auto& [lcol, rcol] : keys) {
        const Value& v = (*lrow)[lcol];
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key.push_back(v);
      }
      if (has_null) continue;
      auto it = inner.find(key);
      if (it == inner.end()) continue;
      for (const Row* rrow : it->second) {
        scope.bindings[0].row = lrow;
        scope.bindings[1].row = rrow;
        WFRM_ASSIGN_OR_RETURN(Value v, Eval(*stmt.where, scope));
        if (!IsTrue(v)) continue;
        ++exec_.stats_.rows_filtered;
        joined->Add(lrow, rrow);
      }
    }
    return Status::OK();
  }

  /// START WITH / CONNECT BY evaluation: breadth-first expansion from the
  /// START WITH roots, joining each frontier row to its children through
  /// the CONNECT BY condition with PRIOR bound to the parent.
  Status RunConnectBy(const SelectStatement& stmt, const Relation& rel,
                      const Scope* outer, const ParamMap& params,
                      JoinedRows* joined, std::vector<int64_t>* levels) {
    const ConnectByClause& cb = *stmt.connect_by;
    // Materialize candidate rows once.
    std::vector<const Row*> all;
    if (rel.table != nullptr) {
      rel.table->ForEach([&](RowId, const Row& row) {
        all.push_back(&row);
        ++exec_.stats_.rows_scanned;
      });
    } else {
      for (const Row& row : *rel.materialized) all.push_back(&row);
    }

    std::deque<std::pair<const Row*, int64_t>> frontier;
    for (const Row* row : all) {
      Scope scope;
      scope.parent = outer;
      scope.params = &params;
      scope.bindings.push_back(
          Binding{&rel.binding_name, &rel.schema, row});
      scope.level = 1;
      WFRM_ASSIGN_OR_RETURN(Value v, Eval(*cb.start_with, scope));
      if (IsTrue(v)) frontier.push_back({row, 1});
    }

    while (!frontier.empty()) {
      auto [row, level] = frontier.front();
      frontier.pop_front();
      if (static_cast<size_t>(level) > exec_.options_.max_connect_by_depth) {
        return Status::ExecutionError(
            "Connect By hierarchy exceeded depth limit (" +
            std::to_string(exec_.options_.max_connect_by_depth) +
            "); possible loop in the data");
      }
      // Emit, subject to WHERE (checked later by caller? We filter here
      // so LEVEL is in scope).
      bool keep = true;
      if (stmt.where) {
        Scope scope;
        scope.parent = outer;
        scope.params = &params;
        scope.bindings.push_back(Binding{&rel.binding_name, &rel.schema, row});
        scope.level = level;
        WFRM_ASSIGN_OR_RETURN(Value v, Eval(*stmt.where, scope));
        keep = IsTrue(v);
      }
      if (keep) {
        ++exec_.stats_.rows_filtered;
        joined->Add(row);
        levels->push_back(level);
      }
      // Expand children.
      for (const Row* child : all) {
        Scope scope;
        scope.parent = outer;
        scope.params = &params;
        scope.bindings.push_back(
            Binding{&rel.binding_name, &rel.schema, child});
        scope.level = level + 1;
        scope.prior_row = row;
        WFRM_ASSIGN_OR_RETURN(Value v, Eval(*cb.connect, scope));
        if (IsTrue(v)) frontier.push_back({child, level + 1});
      }
    }
    return Status::OK();
  }

  /// The bind half of a projection: the select list expanded (star
  /// becomes every column of every relation) and plain column items
  /// resolved to a (relation, column) cell, unless LEVEL is in scope.
  static std::vector<OutCol> BindProjection(
      const SelectStatement& stmt, const std::vector<Relation>& relations) {
    std::vector<OutCol> out_cols;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        for (size_t r = 0; r < relations.size(); ++r) {
          for (size_t c = 0; c < relations[r].schema.num_columns(); ++c) {
            out_cols.push_back(OutCol{relations[r].schema.column(c).name,
                                      nullptr, true, r, c});
          }
        }
        continue;
      }
      OutCol oc{item.alias, item.expr.get()};
      if (item.expr->kind() == Expr::Kind::kColumnRef) {
        const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
        if (oc.name.empty()) oc.name = ref.name();
        const bool is_level = stmt.connect_by.has_value() &&
                              ref.qualifier().empty() &&
                              EqualsIgnoreCase(ref.name(), "level");
        if (auto col = ResolveLocalColumn(ref, relations); col && !is_level) {
          oc.direct = true;
          oc.rel_index = col->first;
          oc.col_index = col->second;
        }
      } else if (oc.name.empty()) {
        oc.name = item.expr->ToString();
      }
      out_cols.push_back(std::move(oc));
    }
    return out_cols;
  }

  /// The run half: one output row per joined tuple, then the schema —
  /// inferred from the values, with star-expanded columns keeping their
  /// declared types.
  Result<ResultSet> EmitRows(const std::vector<OutCol>& out_cols,
                             const std::vector<Relation>& relations,
                             const JoinedRows& joined,
                             const std::vector<int64_t>& levels,
                             const Scope* outer, const ParamMap& params) {
    ResultSet rs;
    Scope scope;
    scope.parent = outer;
    scope.params = &params;
    for (const Relation& rel : relations) {
      scope.bindings.push_back(
          Binding{&rel.binding_name, &rel.schema, nullptr});
    }
    rs.rows.reserve(joined.size());
    for (size_t j = 0; j < joined.size(); ++j) {
      for (size_t i = 0; i < relations.size(); ++i) {
        scope.bindings[i].row = joined[j][i];
      }
      if (!levels.empty()) scope.level = levels[j];
      Row out;
      out.reserve(out_cols.size());
      for (const OutCol& oc : out_cols) {
        if (oc.direct) {
          out.push_back((*joined[j][oc.rel_index])[oc.col_index]);
        } else {
          WFRM_ASSIGN_OR_RETURN(Value v, Eval(*oc.expr, scope));
          out.push_back(std::move(v));
        }
      }
      rs.rows.push_back(std::move(out));
    }

    rs.schema = InferSchema(out_cols.size(), rs.rows,
                            [&](size_t i) { return out_cols[i].name; });
    size_t i = 0;
    Schema fixed;
    for (const OutCol& oc : out_cols) {
      if (oc.expr == nullptr) {
        fixed.AddColumn(
            {oc.name,
             relations[oc.rel_index].schema.column(oc.col_index).type});
      } else {
        fixed.AddColumn(rs.schema.column(i));
      }
      ++i;
    }
    rs.schema = std::move(fixed);
    return rs;
  }

  /// Output schema + row synthesis for the non-aggregate case.
  Result<ResultSet> Project(const SelectStatement& stmt,
                            const std::vector<Relation>& relations,
                            const JoinedRows& joined,
                            const std::vector<int64_t>& levels,
                            const Scope* outer, const ParamMap& params) {
    WFRM_ASSIGN_OR_RETURN(
        ResultSet rs,
        EmitRows(BindProjection(stmt, relations), relations, joined, levels,
                 outer, params));

    // ORDER BY for plain selects: keys resolve against the output row
    // first (aliases), then fall back to the source row, so both
    // `Order By alias` and `Order By unprojected_column` work.
    if (!stmt.order_by.empty() && stmt.union_next == nullptr) {
      static const std::string kRowBinding = "";
      std::vector<std::pair<std::vector<Value>, size_t>> keyed;
      keyed.reserve(rs.rows.size());
      for (size_t j = 0; j < rs.rows.size(); ++j) {
        Scope source;
        source.parent = outer;
        source.params = &params;
        for (size_t i = 0; i < relations.size(); ++i) {
          source.bindings.push_back(Binding{&relations[i].binding_name,
                                            &relations[i].schema,
                                            joined[j][i]});
        }
        if (!levels.empty()) source.level = levels[j];
        Scope output;
        output.parent = &source;
        output.bindings.push_back(
            Binding{&kRowBinding, &rs.schema, &rs.rows[j]});
        std::vector<Value> tuple;
        tuple.reserve(stmt.order_by.size());
        for (const OrderKey& key : stmt.order_by) {
          WFRM_ASSIGN_OR_RETURN(Value v, Eval(*key.expr, output));
          tuple.push_back(std::move(v));
        }
        keyed.push_back({std::move(tuple), j});
      }
      SortKeyed(stmt.order_by, &keyed, &rs);
    }
    return rs;
  }

  /// GROUP BY + aggregate evaluation.
  Result<ResultSet> Aggregate(const SelectStatement& stmt,
                              const std::vector<Relation>& relations,
                              const JoinedRows& joined,
                              const std::vector<int64_t>& levels,
                              const Scope* outer, const ParamMap& params) {
    // Validate select items.
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        return Status::ExecutionError("'*' not allowed with Group By");
      }
    }

    struct Accumulator {
      int64_t count = 0;
      bool any = false;
      Value min, max;
      double sum = 0;
      bool sum_is_int = true;
      int64_t isum = 0;
    };

    auto make_scope = [&](size_t j, Scope* scope) {
      scope->parent = outer;
      scope->params = &params;
      for (size_t i = 0; i < relations.size(); ++i) {
        scope->bindings.push_back(Binding{&relations[i].binding_name,
                                          &relations[i].schema, joined[j][i]});
      }
      if (!levels.empty()) scope->level = levels[j];
    };

    // Group key: values of the group_by columns.
    std::map<std::vector<Value>, std::vector<size_t>> groups;
    for (size_t j = 0; j < joined.size(); ++j) {
      Scope scope;
      make_scope(j, &scope);
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const std::string& col : stmt.group_by) {
        ColumnRefExpr ref("", col);
        WFRM_ASSIGN_OR_RETURN(Value v, EvalColumn(ref, scope));
        key.push_back(std::move(v));
      }
      groups[key].push_back(j);
    }
    // A global aggregate with no rows still produces one (empty) group.
    if (groups.empty() && stmt.group_by.empty()) {
      groups[{}] = {};
    }

    ResultSet rs;
    for (const auto& [key, row_indexes] : groups) {
      Row out;
      for (const SelectItem& item : stmt.items) {
        if (item.aggregate == AggregateFn::kNone) {
          // Must be (functionally) a group key: evaluate on the first row.
          if (row_indexes.empty()) {
            out.push_back(Value::Null());
            continue;
          }
          Scope scope;
          make_scope(row_indexes[0], &scope);
          WFRM_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, scope));
          out.push_back(std::move(v));
          continue;
        }
        Accumulator acc;
        for (size_t j : row_indexes) {
          if (item.aggregate == AggregateFn::kCountStar) {
            ++acc.count;
            continue;
          }
          Scope scope;
          make_scope(j, &scope);
          WFRM_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, scope));
          if (v.is_null()) continue;
          ++acc.count;
          if (!acc.any) {
            acc.min = v;
            acc.max = v;
            acc.any = true;
          } else {
            WFRM_ASSIGN_OR_RETURN(int cmin, v.Compare(acc.min));
            if (cmin < 0) acc.min = v;
            WFRM_ASSIGN_OR_RETURN(int cmax, v.Compare(acc.max));
            if (cmax > 0) acc.max = v;
          }
          if (v.is_numeric()) {
            acc.sum += v.AsDouble();
            if (v.is_int()) {
              acc.isum += v.int_value();
            } else {
              acc.sum_is_int = false;
            }
          } else if (item.aggregate == AggregateFn::kSum ||
                     item.aggregate == AggregateFn::kAvg) {
            return Status::TypeError("Sum/Avg over non-numeric value " +
                                     v.ToString());
          }
        }
        switch (item.aggregate) {
          case AggregateFn::kCountStar:
          case AggregateFn::kCount:
            out.push_back(Value::Int(acc.count));
            break;
          case AggregateFn::kSum:
            if (acc.count == 0) {
              out.push_back(Value::Null());
            } else {
              out.push_back(acc.sum_is_int ? Value::Int(acc.isum)
                                           : Value::Double(acc.sum));
            }
            break;
          case AggregateFn::kAvg:
            out.push_back(acc.count == 0
                              ? Value::Null()
                              : Value::Double(acc.sum / acc.count));
            break;
          case AggregateFn::kMin:
            out.push_back(acc.any ? acc.min : Value::Null());
            break;
          case AggregateFn::kMax:
            out.push_back(acc.any ? acc.max : Value::Null());
            break;
          case AggregateFn::kNone:
            break;
        }
      }
      rs.rows.push_back(std::move(out));
    }

    rs.schema = InferSchema(stmt.items.size(), rs.rows, [&](size_t i) {
      const SelectItem& item = stmt.items[i];
      if (!item.alias.empty()) return item.alias;
      if (item.aggregate != AggregateFn::kNone) return item.ToString();
      if (item.expr && item.expr->kind() == Expr::Kind::kColumnRef) {
        return static_cast<const ColumnRefExpr*>(item.expr.get())->name();
      }
      return item.expr ? item.expr->ToString() : std::string("?");
    });
    // HAVING filters the aggregate output rows (select aliases and group
    // keys are in scope).
    if (stmt.having) {
      static const std::string kRowBinding = "";
      std::vector<Row> kept;
      kept.reserve(rs.rows.size());
      for (Row& row : rs.rows) {
        Scope scope;
        scope.parent = outer;
        scope.params = &params;
        scope.bindings.push_back(Binding{&kRowBinding, &rs.schema, &row});
        WFRM_ASSIGN_OR_RETURN(Value v, Eval(*stmt.having, scope));
        if (IsTrue(v)) kept.push_back(std::move(row));
      }
      rs.rows = std::move(kept);
    }
    // ORDER BY over aggregate output resolves against the output row
    // (aliases and group keys).
    if (!stmt.order_by.empty() && stmt.union_next == nullptr) {
      WFRM_RETURN_NOT_OK(Sort(stmt.order_by, outer, params, &rs));
    }
    return rs;
  }

  template <typename NameFn>
  Schema InferSchema(size_t num_cols, const std::vector<Row>& rows,
                     NameFn name_of) {
    Schema schema;
    for (size_t i = 0; i < num_cols; ++i) {
      DataType type = DataType::kString;
      for (const Row& row : rows) {
        if (i < row.size() && !row[i].is_null()) {
          type = row[i].type();
          break;
        }
      }
      schema.AddColumn({name_of(i), type});
    }
    return schema;
  }

  void Dedup(ResultSet* rs) {
    std::set<std::vector<Value>> seen;
    std::vector<Row> unique;
    unique.reserve(rs->rows.size());
    for (Row& row : rs->rows) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    rs->rows = std::move(unique);
  }

  friend class BoundSelect;

  const Executor& exec_;
  const Database& db_;
  /// Per-execution memo of materialized view snapshots (top-level,
  /// uncorrelated references only). One Impl spans one statement, so the
  /// memo can never serve stale rows across statements.
  struct ViewSnapshot {
    Schema schema;
    std::shared_ptr<const std::vector<Row>> rows;
  };
  std::unordered_map<std::string, ViewSnapshot, CaseInsensitiveHash,
                     CaseInsensitiveEq>
      view_memo_;
};

struct BoundSelect::Plan {
  std::vector<Relation> relations;  // The one base table.
  std::vector<Conjunct> conjuncts;
  std::vector<OutCol> out_cols;
};

BoundSelect::BoundSelect(const Database& db, SelectPtr stmt, ParamMap params)
    : stmt_(std::move(stmt)),
      params_(std::move(params)),
      db_(&db),
      catalog_version_(db.catalog_version()) {
  const SelectStatement& s = *stmt_;
  const bool aggregate =
      !s.group_by.empty() ||
      std::any_of(s.items.begin(), s.items.end(), [](const SelectItem& it) {
        return it.aggregate != AggregateFn::kNone;
      });
  if (s.from.size() != 1 || s.connect_by || aggregate || s.having ||
      s.distinct || !s.order_by.empty() || s.limit || s.union_next) {
    return;
  }
  const Table* table = db.GetTable(s.from[0].name);
  if (table == nullptr) return;  // A view or a missing relation.
  auto plan = std::make_unique<Plan>();
  plan->relations.push_back(
      Relation{s.from[0].BindingName(), table->schema(), table, nullptr});
  plan->conjuncts =
      Executor::Impl::BindConjuncts(s.where.get(), plan->relations, params_);
  plan->out_cols = Executor::Impl::BindProjection(s, plan->relations);
  plan_ = std::move(plan);
}

BoundSelect::~BoundSelect() = default;

Result<ResultSet> BoundSelect::Run(const Executor& exec) const {
  if (plan_ == nullptr || exec.db_ != db_ ||
      db_->catalog_version() != catalog_version_) {
    return exec.Execute(*stmt_, params_);
  }
  Executor::Impl impl(exec);
  return impl.RunBound(*stmt_, params_, plan_->relations, plan_->conjuncts,
                       plan_->out_cols);
}

Result<ResultSet> Executor::Query(std::string_view sql,
                                  const ParamMap& params) const {
  WFRM_ASSIGN_OR_RETURN(SelectPtr stmt, SqlParser::ParseSelect(sql));
  return Execute(*stmt, params);
}

Result<ResultSet> Executor::Execute(const SelectStatement& stmt,
                                    const ParamMap& params) const {
  Impl impl(*this);
  return impl.Execute(stmt, nullptr, params);
}

Result<std::shared_ptr<const PreparedQuery>> Executor::Prepare(
    std::string_view sql) const {
  // Record the catalog version BEFORE validation: if a concurrent DDL
  // lands mid-prepare, the plan is stamped stale and a version-checking
  // cache will re-prepare rather than serve it.
  const uint64_t version = db_->catalog_version();
  WFRM_ASSIGN_OR_RETURN(SelectPtr stmt, SqlParser::ParseSelect(sql));
  for (const SelectStatement* s = stmt.get(); s != nullptr;
       s = s->union_next.get()) {
    for (const TableRef& ref : s->from) {
      if (!db_->HasRelation(ref.name)) {
        return Status::NotFound("relation '" + ref.name +
                                "' does not exist");
      }
    }
  }
  return std::make_shared<const PreparedQuery>(std::string(sql),
                                               std::move(stmt), version);
}

Result<ResultSet> Executor::Execute(const PreparedQuery& prepared,
                                    const ParamMap& params) const {
  Impl impl(*this);
  return impl.Execute(prepared.stmt(), nullptr, params);
}

Result<std::string> Executor::Explain(const SelectStatement& stmt,
                                      const ParamMap& params) const {
  Impl impl(*this);
  return impl.Explain(stmt, nullptr, params, 0);
}

Result<Value> Executor::EvalWithRow(const Expr& expr, const Schema& schema,
                                    const Row& row,
                                    const ParamMap& params) const {
  Impl impl(*this);
  Scope scope;
  scope.params = &params;
  static const std::string kRowBinding = "";
  Binding b{&kRowBinding, &schema, &row};
  scope.bindings.push_back(b);
  return impl.Eval(expr, scope);
}

Result<Value> Executor::EvalConst(const Expr& expr,
                                  const ParamMap& params) const {
  Impl impl(*this);
  Scope scope;
  scope.params = &params;
  return impl.Eval(expr, scope);
}

}  // namespace wfrm::rel
