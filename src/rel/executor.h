#ifndef WFRM_REL_EXECUTOR_H_
#define WFRM_REL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/strings.h"
#include "rel/database.h"
#include "rel/sql_ast.h"

namespace wfrm::rel {

class PreparedQuery;

/// Named parameter bindings (`[Name]` → value), case-insensitive.
/// The policy rewriters bind activity attributes through this map.
using ParamMap = std::unordered_map<std::string, Value, CaseInsensitiveHash,
                                    CaseInsensitiveEq>;

/// Work counters exposed for the benchmark harness: how execution was
/// served, independent of wall-clock time.
struct ExecStats {
  uint64_t rows_scanned = 0;     // Rows read by full scans.
  uint64_t index_probes = 0;     // Ordered-index probes issued.
  uint64_t rows_from_index = 0;  // Rows fetched through an index probe.
  uint64_t rows_filtered = 0;    // Rows surviving WHERE.

  void Reset() { *this = ExecStats{}; }
};

struct ExecOptions {
  /// When false, every access is a full scan — the ablation baseline for
  /// the paper's concatenated-index recommendation (§5.2, §6).
  bool use_indexes = true;
  /// Hierarchy depth cap for CONNECT BY; exceeding it reports a loop.
  size_t max_connect_by_depth = 128;
};

/// Executes SELECT statements against a Database.
///
/// Supported surface: multi-table FROM (nested-loop join), WHERE with
/// three-valued logic, scalar and IN subqueries (correlated), GROUP BY
/// with Count/Sum/Min/Max/Avg, DISTINCT, UNION, Oracle-style
/// START WITH / CONNECT BY PRIOR with the LEVEL pseudo-column, views,
/// and single-table index access-path selection over ordered indexes.
class Executor {
 public:
  explicit Executor(const Database* db, ExecOptions options = ExecOptions())
      : db_(db), options_(options) {}

  /// Parses and executes `sql`.
  Result<ResultSet> Query(std::string_view sql,
                          const ParamMap& params = {}) const;

  /// Executes a parsed statement.
  Result<ResultSet> Execute(const SelectStatement& stmt,
                            const ParamMap& params = {}) const;

  /// Parses `sql` once and validates that every relation referenced in
  /// the FROM clauses of the union chain exists, returning a reusable
  /// handle stamped with the current catalog version. Parameters are
  /// bound per execution, so one plan serves every query of the shape.
  Result<std::shared_ptr<const PreparedQuery>> Prepare(
      std::string_view sql) const;

  /// Executes a previously prepared query with fresh parameter bindings.
  /// Tolerant of a stale catalog version (names re-resolve against the
  /// current catalog); PlanCache is what enforces version matching.
  Result<ResultSet> Execute(const PreparedQuery& prepared,
                            const ParamMap& params = {}) const;

  /// Renders the execution plan without running the query: access path
  /// per relation (index probe vs full scan), join shape, hierarchy
  /// evaluation, aggregation, ordering and union arms. One node per
  /// line, children indented.
  Result<std::string> Explain(const SelectStatement& stmt,
                              const ParamMap& params = {}) const;

  /// Evaluates an expression against a single row of `schema`, binding
  /// `[params]`; used by the policy manager to test activity ranges and
  /// by property tests as an oracle.
  Result<Value> EvalWithRow(const Expr& expr, const Schema& schema,
                            const Row& row, const ParamMap& params = {}) const;

  /// Evaluates a constant expression (no row bindings).
  Result<Value> EvalConst(const Expr& expr,
                          const ParamMap& params = {}) const;

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  const ExecOptions& options() const { return options_; }

  const Database* db() const { return db_; }

 private:
  class Impl;
  friend class Impl;
  friend class BoundSelect;

  const Database* db_;
  ExecOptions options_;
  mutable ExecStats stats_;
};

/// A SELECT bound once and run many times. Binding resolves a
/// single-table statement's relation, its top-level WHERE conjuncts
/// (`column op constant` comparisons become fixed cell checks) and its
/// projection against the catalog; every Run reads the table's live rows
/// through the same scan the executor uses for its own single-table
/// statements. The statement and parameters are owned, so bound
/// constants live as long as the object.
///
/// Statements outside that shape (joins, views, CONNECT BY, aggregates,
/// DISTINCT, ORDER BY, LIMIT, UNION), and any Run after the catalog
/// changed, go through Executor::Execute instead. Either way Run returns
/// exactly what Execute(stmt(), params()) would: rows, order, schema and
/// status. Construct while holding whatever lock guards the catalog
/// against writers; Run needs the same lock as Execute.
class BoundSelect {
 public:
  BoundSelect(const Database& db, SelectPtr stmt, ParamMap params);
  ~BoundSelect();
  BoundSelect(const BoundSelect&) = delete;
  BoundSelect& operator=(const BoundSelect&) = delete;

  Result<ResultSet> Run(const Executor& exec) const;

  const SelectStatement& stmt() const { return *stmt_; }
  const ParamMap& params() const { return params_; }
  /// True when Run takes the bound scan rather than Execute.
  bool bound() const { return plan_ != nullptr; }

 private:
  struct Plan;

  SelectPtr stmt_;
  ParamMap params_;
  const Database* db_;
  uint64_t catalog_version_;
  std::unique_ptr<const Plan> plan_;
};

}  // namespace wfrm::rel

#endif  // WFRM_REL_EXECUTOR_H_
