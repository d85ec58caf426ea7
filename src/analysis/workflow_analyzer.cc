#include "analysis/workflow_analyzer.h"

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <utility>

namespace wfrm::analysis {

namespace {

/// C(n, k), saturating at cap + 1 (callers only care whether the exact
/// count fits under `cap`).
uint64_t CountCombinations(size_t n, size_t k, uint64_t cap) {
  uint64_t count = 1;
  for (size_t i = 0; i < k; ++i) {
    count = count * (n - i) / (i + 1);  // exact: consecutive product
    if (count > cap) return cap + 1;
  }
  return count;
}

/// Copies `candidates` with every resource in `killed` removed.
std::vector<StepCandidates> FilterUnavailable(
    const std::vector<StepCandidates>& candidates,
    const std::set<org::ResourceRef>& killed) {
  std::vector<StepCandidates> filtered = candidates;
  for (StepCandidates& step : filtered) {
    step.candidates.erase(
        std::remove_if(step.candidates.begin(), step.candidates.end(),
                       [&killed](const WspCandidate& c) {
                         return killed.count(c.resource) > 0;
                       }),
        step.candidates.end());
  }
  return filtered;
}

std::string RenderRefs(const std::vector<org::ResourceRef>& refs) {
  std::string out = "{";
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0) out += ", ";
    out += refs[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace

WorkflowAnalyzer::WorkflowAnalyzer(const core::ResourceManager* rm,
                                   AnalysisOptions options)
    : rm_(rm), options_(options) {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  metrics_.solves_sat =
      reg->GetCounter("wfrm_analysis_solves_total", {{"outcome", "sat"}},
                      "Workflow satisfiability solves by outcome.");
  metrics_.solves_unsat =
      reg->GetCounter("wfrm_analysis_solves_total", {{"outcome", "unsat"}});
  metrics_.search_nodes =
      reg->GetCounter("wfrm_analysis_search_nodes_total", {},
                      "Candidate trials across all WSP searches.");
  metrics_.backtracks =
      reg->GetCounter("wfrm_analysis_backtracks_total", {},
                      "Backtracks across all WSP searches.");
  metrics_.candidates_derived =
      reg->GetCounter("wfrm_analysis_candidates_total", {},
                      "Step candidates derived through the pipeline.");
  metrics_.resiliency_subsets =
      reg->GetCounter("wfrm_analysis_resiliency_subsets_total", {},
                      "Unavailability subsets re-solved by resiliency sweeps.");
  metrics_.solve_micros =
      reg->GetHistogram("wfrm_analysis_solve_micros",
                        obs::Histogram::LatencyBucketsMicros(), {},
                        "End-to-end Analyze latency.");
}

Result<StepCandidates> WorkflowAnalyzer::DeriveOne(
    const WorkflowStep& step, obs::TraceSpan* parent) const {
  obs::ScopedSpan span(parent, "step");
  obs::Attr(span, "step", step.name);

  StepCandidates out;
  out.step = step.name;

  // Round 1: the pipeline as-is. A parse/bind error in the step's RQL is
  // an error of the spec, not an unsatisfiable instance — propagate it.
  WFRM_ASSIGN_OR_RETURN(core::QueryOutcome outcome, rm_->Submit(step.rql));
  if (!outcome.ok()) {
    out.enforcement_status = outcome.status;
    obs::Attr(span, "status", outcome.status.ToString());
    return out;
  }
  int primary_cost = outcome.used_substitution ? 1 : 0;
  for (const org::ResourceRef& ref : outcome.candidates) {
    out.candidates.push_back({ref, primary_cost});
  }

  // Round 2 (substitution tier): ask again as if every primary candidate
  // were busy — the pipeline itself falls through to its §4.3
  // alternatives, telling us who substitutes (at cost 1) when the
  // primaries are gone. Nothing is leased.
  if (options_.include_substitution_tier && !outcome.used_substitution &&
      rm_->options().enable_substitution) {
    Result<core::QueryOutcome> shadowed =
        rm_->Submit(step.rql, /*unavailable=*/outcome.candidates);
    if (shadowed.ok() && shadowed->ok() && shadowed->used_substitution) {
      for (const org::ResourceRef& ref : shadowed->candidates) {
        out.candidates.push_back({ref, 1});
      }
    }
  }

  out.Normalize();
  if (span != nullptr) {
    size_t substitutes = 0;
    for (const WspCandidate& c : out.candidates) {
      if (c.cost > 0) ++substitutes;
    }
    obs::Attr(span, "candidates",
              static_cast<int64_t>(out.candidates.size()));
    obs::Attr(span, "substitutes", static_cast<int64_t>(substitutes));
  }
  return out;
}

Result<std::vector<StepCandidates>> WorkflowAnalyzer::DeriveCandidates(
    const WorkflowSpec& spec, obs::TraceSpan* parent) const {
  obs::ScopedSpan span(parent, "candidates");
  std::vector<StepCandidates> out;
  out.reserve(spec.steps.size());
  size_t total = 0;
  for (const WorkflowStep& step : spec.steps) {
    WFRM_ASSIGN_OR_RETURN(StepCandidates derived, DeriveOne(step, span));
    total += derived.candidates.size();
    out.push_back(std::move(derived));
  }
  if (metrics_.candidates_derived != nullptr) {
    metrics_.candidates_derived->Increment(total);
  }
  return out;
}

Result<ResiliencyReport> WorkflowAnalyzer::CheckResiliency(
    const WorkflowSpec& spec, const std::vector<StepCandidates>& candidates,
    bool base_satisfiable, obs::TraceSpan* parent) const {
  obs::ScopedSpan span(parent, "resiliency");
  ResiliencyReport report;
  report.checked = true;
  report.k = options_.resiliency_k;

  std::set<org::ResourceRef> universe;
  for (const StepCandidates& step : candidates) {
    for (const WspCandidate& c : step.candidates) universe.insert(c.resource);
  }
  report.universe_size = universe.size();
  obs::Attr(span, "k", static_cast<int64_t>(report.k));
  obs::Attr(span, "universe", static_cast<int64_t>(report.universe_size));

  // k = 0 is plain satisfiability; an already-unsatisfiable base cannot
  // be resilient to anything (the failing "subset" is the empty one).
  if (report.k == 0 || !base_satisfiable) {
    report.resilient = base_satisfiable;
    obs::Attr(span, "resilient", report.resilient ? "true" : "false");
    return report;
  }

  // Unsatisfiability is monotone in the unavailable set, so checking
  // exactly min(k, |universe|)-sized subsets covers every smaller loss.
  std::vector<org::ResourceRef> pool(universe.begin(), universe.end());
  size_t kk = std::min(report.k, pool.size());
  uint64_t total =
      CountCombinations(pool.size(), kk, options_.max_resiliency_subsets);
  report.sampled = total > options_.max_resiliency_subsets;

  SolveOptions solve_options;
  solve_options.valued = false;
  solve_options.max_nodes = options_.max_search_nodes;
  solve_options.minimize_core = false;

  report.resilient = true;
  auto check_subset =
      [&](const std::vector<size_t>& picked) -> Result<bool> {
    std::set<org::ResourceRef> killed;
    for (size_t i : picked) killed.insert(pool[i]);
    WFRM_ASSIGN_OR_RETURN(
        SolveResult solved,
        SolveWsp(spec, FilterUnavailable(candidates, killed), solve_options));
    ++report.subsets_checked;
    if (metrics_.resiliency_subsets != nullptr) {
      metrics_.resiliency_subsets->Increment();
    }
    if (metrics_.search_nodes != nullptr) {
      metrics_.search_nodes->Increment(solved.stats.nodes);
      metrics_.backtracks->Increment(solved.stats.backtracks);
    }
    if (!solved.satisfiable) {
      report.resilient = false;
      report.failing_subset.assign(killed.begin(), killed.end());
    }
    return report.resilient;
  };

  if (!report.sampled) {
    // Exhaustive: lexicographic enumeration of all kk-subsets.
    std::vector<size_t> idx(kk);
    for (size_t i = 0; i < kk; ++i) idx[i] = i;
    while (true) {
      WFRM_ASSIGN_OR_RETURN(bool still_resilient, check_subset(idx));
      if (!still_resilient) break;
      // Advance to the next combination.
      size_t i = kk;
      while (i > 0 && idx[i - 1] == pool.size() - kk + (i - 1)) --i;
      if (i == 0) break;
      ++idx[i - 1];
      for (size_t j = i; j < kk; ++j) idx[j] = idx[j - 1] + 1;
    }
  } else {
    // Sampled: seeded random kk-subsets via partial Fisher-Yates.
    std::mt19937_64 rng(options_.resiliency_sample_seed);
    std::vector<size_t> deck(pool.size());
    for (size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    for (size_t s = 0; s < options_.max_resiliency_subsets; ++s) {
      for (size_t i = 0; i < kk; ++i) {
        std::uniform_int_distribution<size_t> pick(i, deck.size() - 1);
        std::swap(deck[i], deck[pick(rng)]);
      }
      std::vector<size_t> picked(deck.begin(), deck.begin() + kk);
      WFRM_ASSIGN_OR_RETURN(bool still_resilient, check_subset(picked));
      if (!still_resilient) break;
    }
  }

  obs::Attr(span, "subsets", static_cast<int64_t>(report.subsets_checked));
  obs::Attr(span, "sampled", report.sampled ? "true" : "false");
  obs::Attr(span, "resilient", report.resilient ? "true" : "false");
  return report;
}

Result<AnalysisReport> WorkflowAnalyzer::Analyze(
    const WorkflowSpec& spec) const {
  int64_t start_micros = rm_->clock().NowMicros();
  std::shared_ptr<obs::EnforcementTrace> trace;
  obs::TraceSpan* root = nullptr;
  if (options_.trace_sink != nullptr) {
    trace = std::make_shared<obs::EnforcementTrace>(
        "analyze " + (spec.name.empty() ? std::string("Unnamed") : spec.name),
        &rm_->clock());
    root = trace->root();
    obs::Attr(root, "steps", static_cast<int64_t>(spec.steps.size()));
    obs::Attr(root, "constraints",
              static_cast<int64_t>(spec.constraints.size()));
  }

  AnalysisReport report;
  report.workflow = spec.name;
  WFRM_ASSIGN_OR_RETURN(report.candidates, DeriveCandidates(spec, root));

  {
    obs::ScopedSpan solve_span(root, "solve");
    SolveOptions solve_options;
    solve_options.valued = options_.valued;
    solve_options.max_nodes = options_.max_search_nodes;
    WFRM_ASSIGN_OR_RETURN(report.solve,
                          SolveWsp(spec, report.candidates, solve_options));
    obs::Attr(solve_span, "outcome",
              report.solve.satisfiable ? "sat" : "unsat");
    obs::Attr(solve_span, "nodes",
              static_cast<int64_t>(report.solve.stats.nodes));
    obs::Attr(solve_span, "backtracks",
              static_cast<int64_t>(report.solve.stats.backtracks));
    if (report.solve.satisfiable) {
      obs::Attr(solve_span, "cost", report.solve.total_cost);
    }
  }
  if (metrics_.solves_sat != nullptr) {
    (report.solve.satisfiable ? metrics_.solves_sat : metrics_.solves_unsat)
        ->Increment();
    metrics_.search_nodes->Increment(report.solve.stats.nodes);
    metrics_.backtracks->Increment(report.solve.stats.backtracks);
  }

  WFRM_ASSIGN_OR_RETURN(
      report.resiliency,
      CheckResiliency(spec, report.candidates, report.solve.satisfiable,
                      root));

  report.elapsed_micros = rm_->clock().NowMicros() - start_micros;
  if (metrics_.solve_micros != nullptr) {
    metrics_.solve_micros->Observe(
        static_cast<double>(report.elapsed_micros));
  }
  if (trace != nullptr) {
    trace->Finish();
    options_.trace_sink->Add(std::move(trace));
  }
  return report;
}

std::string AnalysisReport::ToString() const {
  std::string out = "Workflow analysis: " +
                    (workflow.empty() ? std::string("Unnamed") : workflow);
  out += " (" + std::to_string(candidates.size()) + " steps)\n";

  out += "\n[1] Candidates (derived through the enforcement pipeline)\n";
  for (const StepCandidates& step : candidates) {
    size_t substitutes = 0;
    for (const WspCandidate& c : step.candidates) {
      if (c.cost > 0) ++substitutes;
    }
    if (step.candidates.empty()) {
      out += "    " + step.step + ": NONE";
      if (!step.enforcement_status.ok()) {
        out += " — " + step.enforcement_status.ToString();
      }
      out += "\n";
      continue;
    }
    out += "    " + step.step + ": " +
           std::to_string(step.candidates.size() - substitutes) +
           " primary + " + std::to_string(substitutes) + " substitute\n";
    for (const WspCandidate& c : step.candidates) {
      out += "      - " + c.resource.ToString() +
             (c.cost > 0 ? " (substitute, cost " + std::to_string(c.cost) +
                               ")"
                         : " (primary)") +
             "\n";
    }
  }

  out += "\n[2] Satisfiability: ";
  if (solve.satisfiable) {
    out += "SATISFIABLE (total cost " + std::to_string(solve.total_cost) +
           "; " + std::to_string(solve.stats.nodes) + " nodes, " +
           std::to_string(solve.stats.backtracks) + " backtracks)\n";
    for (const WspAssignment& a : solve.witness) {
      out += "      " + a.step + " -> " + a.resource.ToString() +
             (a.cost > 0 ? " (substitute, cost " + std::to_string(a.cost) +
                               ")"
                         : "") +
             "\n";
    }
  } else {
    out += "UNSATISFIABLE\n";
    out += "    " + solve.core.ToString() + "\n";
  }

  out += "\n[3] Resiliency";
  if (!resiliency.checked) {
    out += ": not checked\n";
  } else if (resiliency.k == 0) {
    out += " (k=0): equivalent to plain satisfiability — ";
    out += resiliency.resilient ? "resilient\n" : "not resilient\n";
  } else if (resiliency.resilient) {
    out += " (k=" + std::to_string(resiliency.k) + "): resilient — " +
           std::to_string(resiliency.subsets_checked) +
           (resiliency.sampled ? " sampled" : "") +
           " unavailability subsets over " +
           std::to_string(resiliency.universe_size) +
           " resources all satisfiable\n";
  } else {
    out += " (k=" + std::to_string(resiliency.k) + "): NOT resilient";
    if (resiliency.failing_subset.empty()) {
      out += " — unsatisfiable before any resource is lost\n";
    } else {
      out += " — fails when " + RenderRefs(resiliency.failing_subset) +
             " unavailable\n";
    }
  }
  return out;
}

}  // namespace wfrm::analysis
