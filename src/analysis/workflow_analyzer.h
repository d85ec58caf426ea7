#ifndef WFRM_ANALYSIS_WORKFLOW_ANALYZER_H_
#define WFRM_ANALYSIS_WORKFLOW_ANALYZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/workflow_spec.h"
#include "analysis/wsp_solver.h"
#include "common/result.h"
#include "core/resource_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wfrm::analysis {

struct AnalysisOptions {
  /// Resiliency level: re-solve under every (or, above
  /// max_resiliency_subsets, a seeded sample of) k-subset of unavailable
  /// resources. 0 = plain WSP only.
  size_t resiliency_k = 0;
  /// Valued WSP: minimize the total substitution-policy cost of the
  /// witness instead of stopping at the first one.
  bool valued = false;
  /// Also derive each step's substitution tier (cost-1 candidates) by
  /// re-enforcing with the primary candidates treated as busy — the
  /// pipeline itself answers "who substitutes when the primaries are
  /// gone".
  bool include_substitution_tier = true;
  /// Above this many k-subsets the resiliency sweep samples instead of
  /// enumerating.
  size_t max_resiliency_subsets = 512;
  uint64_t resiliency_sample_seed = 42;
  /// Search budget forwarded to SolveWsp.
  size_t max_search_nodes = 1 << 22;
  /// wfrm_analysis_* instruments are registered here when non-null.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null, every Analyze delivers an "analyze" span tree
  /// (candidate derivation, solve, resiliency) here.
  obs::TraceSink* trace_sink = nullptr;
};

struct ResiliencyReport {
  bool checked = false;
  size_t k = 0;
  /// True when every examined k-subset of unavailable resources leaves
  /// the workflow satisfiable (k = 0: identical to plain satisfiability).
  bool resilient = false;
  size_t universe_size = 0;
  size_t subsets_checked = 0;
  bool sampled = false;
  /// First failing subset found (empty when resilient, or when the base
  /// instance is already unsatisfiable with nothing unavailable).
  std::vector<org::ResourceRef> failing_subset;
};

/// Everything one Analyze produced: the derived candidate sets, the
/// solve outcome (witness or minimal core) and the resiliency sweep.
struct AnalysisReport {
  std::string workflow;
  std::vector<StepCandidates> candidates;
  SolveResult solve;
  ResiliencyReport resiliency;
  int64_t elapsed_micros = 0;

  /// Explain-style prose report: per-step candidate tiers, then the
  /// witness assignment (with substitution costs) or the named
  /// unsatisfiable core, then the resiliency verdict.
  std::string ToString() const;
};

/// The offline workflow analyzer (ROADMAP item 4): answers "can every
/// activity of this workflow be staffed, under the current policies and
/// resource directory" by deriving every step's candidate set through
/// the *live* enforcement pipeline (compiled fast path, caches and all)
/// and searching assignments under the spec's binding constraints.
///
/// Because candidates come from ResourceManager::Submit, the analyzer
/// doubles as a differential harness for the rewriter: every claimed
/// witness can be re-verified step-by-step against Enforce (see
/// analysis/differential.h).
///
/// The substitution tier resubmits with the primary candidates treated
/// as busy, so the pipeline produces its §4.3 alternatives. Analysis only
/// reads the manager: WSP is posed over a fixed authorization relation,
/// and computing it leaves leases, allocation state and journals as they
/// were, so Analyze may run beside live traffic.
class WorkflowAnalyzer {
 public:
  explicit WorkflowAnalyzer(const core::ResourceManager* rm,
                            AnalysisOptions options = {});

  Result<AnalysisReport> Analyze(const WorkflowSpec& spec) const;

  /// Candidate derivation alone (exposed for the differential fuzzer and
  /// tests): element i describes spec.steps[i].
  Result<std::vector<StepCandidates>> DeriveCandidates(
      const WorkflowSpec& spec, obs::TraceSpan* parent = nullptr) const;

  const AnalysisOptions& options() const { return options_; }

 private:
  Result<StepCandidates> DeriveOne(const WorkflowStep& step,
                                   obs::TraceSpan* parent) const;

  Result<ResiliencyReport> CheckResiliency(
      const WorkflowSpec& spec, const std::vector<StepCandidates>& candidates,
      bool base_satisfiable, obs::TraceSpan* parent) const;

  const core::ResourceManager* rm_;
  AnalysisOptions options_;

  /// Resolved instruments; all null when options_.metrics is null.
  struct Instruments {
    obs::Counter* solves_sat = nullptr;
    obs::Counter* solves_unsat = nullptr;
    obs::Counter* search_nodes = nullptr;
    obs::Counter* backtracks = nullptr;
    obs::Counter* candidates_derived = nullptr;
    obs::Counter* resiliency_subsets = nullptr;
    obs::Histogram* solve_micros = nullptr;
  };
  Instruments metrics_;
};

}  // namespace wfrm::analysis

#endif  // WFRM_ANALYSIS_WORKFLOW_ANALYZER_H_
