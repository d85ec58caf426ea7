#ifndef WFRM_POLICY_PAPER_RETRIEVAL_H_
#define WFRM_POLICY_PAPER_RETRIEVAL_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "policy/policy_store.h"
#include "policy/selectivity_model.h"
#include "rel/database.h"
#include "rel/prepared.h"

namespace wfrm::policy {

/// Every tunable of the paper's requirement-retrieval ablations.
struct PaperRetrievalOptions {
  /// Join order, or the literal SQL.
  enum class Strategy {
    /// Drive from Relevant_Filter (Figure 14): per-attribute interval
    /// probes count enclosures per PID, joined against the Figure 13
    /// candidates. The serving store's reference plan. Wins when the
    /// Filter view is the more selective one (large c).
    kFilterFirst,
    /// Drive from Relevant_Policies (Figure 13): each candidate verified
    /// against its own interval rows (lookup by PID). Wins when the
    /// Policies view is the more selective one (small c / large q).
    kPoliciesFirst,
    /// Per query, the join order §6's cost model prefers on live
    /// statistics (|A|, |R| from the hierarchies; q, c from the rows).
    kAdaptive,
    /// The Figure 13/14 views and the Figure 15 union on the embedded
    /// relational engine, through a prepared-plan cache.
    kSql,
  };
  Strategy strategy = Strategy::kFilterFirst;
  /// false: full scans instead of the §5.2 concatenated indexes.
  bool use_indexes = true;
};

/// Work counters of one PaperRetrieval.
struct PaperRetrievalStats {
  uint64_t candidate_rows = 0;  // Policy rows inspected.
  uint64_t interval_rows = 0;   // Filter rows inspected.
  uint64_t plans_filter_first = 0;
  uint64_t plans_policies_first = 0;
  /// Prepared-plan cache probes (kSql); a catalog invalidation is a miss.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

/// The paper's alternative requirement-retrieval strategies (§5, §6),
/// kept beside the serving PolicyStore for benches and differential
/// tests. It reads the live store only through ExportImage(), epoch()
/// and org(): the rows go into a database of its own, reloaded whenever
/// the store's epoch has moved, so nothing here (the kSql views
/// included) ever touches the serving database or its lock. Answers are
/// row-for-row those of PolicyStore::RelevantRequirements at the same
/// epoch. Thread-safe; `live` must outlive this object.
class PaperRetrieval {
 public:
  using Strategy = PaperRetrievalOptions::Strategy;

  explicit PaperRetrieval(const PolicyStore& live,
                          PaperRetrievalOptions options = {});

  /// §4.2 / Figures 13–16 under the configured strategy; sorted by PID.
  Result<std::vector<RelevantRequirement>> RelevantRequirements(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;

  /// Live parameter estimates feeding kAdaptive: |A| and |R| from the
  /// hierarchies, distinct (Activity, Resource) pairs from the
  /// concatenated index, q and c derived per §6's N = |R|·q·c.
  SelectivityParams EstimateParams() const;

  /// True when the §6 model predicts Policies-first is the cheaper join
  /// order for a query binding `num_spec_attributes` attributes: expected
  /// candidate verifications (Selectivity_Policies · N · i) against
  /// expected interval-probe work (one range probe per bound attribute,
  /// each visiting about half of its attribute's partition of Filter).
  bool PreferPoliciesFirst(size_t num_spec_attributes) const;

  /// Measured selectivities of the two §5.2 views for one query: the
  /// fraction of Policies rows matched by the Figure 13 predicate and of
  /// Filter rows matched by the Figure 14 predicate — the empirical
  /// counterpart of the §6 model (bench/fig17_selectivity.cc).
  struct ViewSelectivity {
    double policies_rate = 0;
    double filter_rate = 0;
  };
  Result<ViewSelectivity> MeasureViewSelectivity(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;

  PaperRetrievalStats stats() const {
    return {candidate_rows_, interval_rows_, plans_filter_first_,
            plans_policies_first_, plan_cache_hits_, plan_cache_misses_};
  }
  const rel::PlanCache& plan_cache() const { return plan_cache_; }

 private:
  /// A query as the store sees it: canonical spec keys, and the activity
  /// and resource types with their ancestors.
  struct Query {
    rel::ParamMap spec;
    std::vector<std::string> activities;
    std::vector<std::string> resources;
  };
  Result<Query> Canonicalize(const std::string& resource,
                             const std::string& activity,
                             const rel::ParamMap& spec) const;

  /// Reloads the rows when the live epoch moved since the last load.
  Status Refresh() const;

  // Caller holds mu_. Figure 13 candidates, and per PID the intervals
  // enclosing the spec — Filter-first by attribute, Policies-first by
  // candidate — by index or by full scan.
  std::vector<relations::CandidateRow> Candidates(
      const std::vector<std::string>& activities,
      const std::vector<std::string>& resources,
      relations::ScanWork* work) const;
  Result<std::unordered_map<int64_t, int64_t>> EnclosingIntervals(
      const rel::ParamMap& spec, relations::ScanWork* work) const;
  Result<std::unordered_map<int64_t, int64_t>> EnclosingPerCandidate(
      const std::vector<relations::CandidateRow>& candidates,
      const rel::ParamMap& spec, relations::ScanWork* work) const;
  bool PreferPoliciesFirstLocked(size_t num_spec_attributes) const;
  SelectivityParams EstimateParamsLocked() const;

  /// Locks internally: shared to execute, exclusive only the first time a
  /// shape bucket registers its views.
  Result<std::vector<RelevantRequirement>> RunSql(const Query& q) const;
  /// Registers the parameterized Figure 13/14 views of one shape bucket
  /// (idempotent) and returns the Figure 15 union to run against them.
  Result<std::string> EnsureSqlShape(size_t ba, size_t br, size_t bk) const;

  const PolicyStore& live_;
  const PaperRetrievalOptions options_;

  /// Guards db_, filter_attributes_ and sql_shapes_: shared to retrieve,
  /// exclusive to reload rows or register views.
  mutable std::shared_mutex mu_;
  mutable rel::Database db_;
  /// Live epoch of the loaded rows; UINT64_MAX before the first load.
  mutable std::atomic<uint64_t> loaded_epoch_{UINT64_MAX};
  /// Distinct Filter attributes (the kAdaptive cost model's partitions).
  mutable size_t filter_attributes_ = 0;
  mutable std::unordered_set<std::string> sql_shapes_;
  mutable rel::PlanCache plan_cache_;

  mutable std::atomic<uint64_t> candidate_rows_{0}, interval_rows_{0},
      plans_filter_first_{0}, plans_policies_first_{0}, plan_cache_hits_{0},
      plan_cache_misses_{0};
};

}  // namespace wfrm::policy

#endif  // WFRM_POLICY_PAPER_RETRIEVAL_H_
