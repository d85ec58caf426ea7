#include "analysis/differential.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/workflow_analyzer.h"
#include "analysis/workflow_spec.h"
#include "analysis/wsp_solver.h"
#include "core/resource_manager.h"
#include "org/org_model.h"
#include "org/rdl_parser.h"
#include "policy/policy_store.h"

namespace wfrm::analysis {

namespace {

constexpr const char* kRegions[] = {"North", "South", "East", "West"};

std::string Num(uint64_t v) { return std::to_string(v); }

/// Checks a complete assignment against the spec's constraints with
/// plain set arithmetic — deliberately sharing no machinery with
/// SolveWsp (no blocks, no union-find, no propagation).
bool AssignmentSatisfies(const WorkflowSpec& spec,
                         const std::vector<org::ResourceRef>& picks) {
  for (const WorkflowConstraint& c : spec.constraints) {
    std::vector<org::ResourceRef> scope;
    for (const std::string& step : c.steps) {
      size_t i = spec.FindStep(step);
      if (i == WorkflowSpec::kNotFound) return false;
      scope.push_back(picks[i]);
    }
    switch (c.kind) {
      case ConstraintKind::kBindingOfDuty:
        for (const org::ResourceRef& r : scope) {
          if (!(r == scope.front())) return false;
        }
        break;
      case ConstraintKind::kSeparationOfDuty:
        for (size_t a = 0; a < scope.size(); ++a) {
          for (size_t b = a + 1; b < scope.size(); ++b) {
            if (scope[a] == scope[b]) return false;
          }
        }
        break;
      case ConstraintKind::kAtMostK: {
        std::set<org::ResourceRef> distinct(scope.begin(), scope.end());
        if (distinct.size() > c.k) return false;
        break;
      }
    }
  }
  return true;
}

/// Exhaustive minimum witness cost over the candidate product, or -1
/// when no assignment satisfies the constraints. Independent of both
/// SolveWsp and BruteForceWitness's early exit.
int64_t BruteForceMinCost(const WorkflowSpec& spec,
                          const std::vector<StepCandidates>& candidates) {
  if (spec.steps.empty()) return 0;
  for (const StepCandidates& step : candidates) {
    if (step.candidates.empty()) return -1;
  }
  std::vector<size_t> odo(candidates.size(), 0);
  int64_t best = -1;
  while (true) {
    std::vector<org::ResourceRef> picks;
    int64_t cost = 0;
    for (size_t i = 0; i < odo.size(); ++i) {
      const WspCandidate& c = candidates[i].candidates[odo[i]];
      picks.push_back(c.resource);
      cost += c.cost;
    }
    if (AssignmentSatisfies(spec, picks) && (best < 0 || cost < best)) {
      best = cost;
    }
    size_t i = 0;
    while (i < odo.size() && ++odo[i] == candidates[i].candidates.size()) {
      odo[i] = 0;
      ++i;
    }
    if (i == odo.size()) break;
  }
  return best;
}

/// Confirms one witness assignment against the enforcement oracle: a
/// fresh Submit must offer the resource, either directly or — for a
/// substitution-tier pick — with the primary candidates treated as busy.
Status VerifyAgainstOracle(const core::ResourceManager* rm,
                           const std::string& rql, const WspAssignment& a) {
  WFRM_ASSIGN_OR_RETURN(core::QueryOutcome outcome, rm->Submit(rql));
  if (!outcome.ok()) {
    return Status::ExecutionError(
        "oracle mismatch: witness assigns " + a.resource.ToString() +
        " to step '" + a.step + "' but Submit fails with " +
        outcome.status.ToString());
  }
  for (const org::ResourceRef& ref : outcome.candidates) {
    if (ref == a.resource) return Status::OK();
  }
  // Substitution tier: the oracle only reveals §4.3 alternatives once
  // the primaries are unavailable — ask again with them marked busy.
  Result<core::QueryOutcome> shadowed =
      rm->Submit(rql, /*unavailable=*/outcome.candidates);
  if (shadowed.ok() && shadowed->ok()) {
    for (const org::ResourceRef& ref : shadowed->candidates) {
      if (ref == a.resource) return Status::OK();
    }
  }
  return Status::ExecutionError(
      "oracle mismatch: witness assigns " + a.resource.ToString() +
      " to step '" + a.step +
      "' but the enforcement pipeline never offers it");
}

}  // namespace

DifferentialCase GenerateCase(uint64_t seed) {
  DifferentialCase c;
  c.seed = seed;
  // splitmix-style scrambling so neighboring seeds diverge immediately.
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^
                      (seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull));
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

  size_t num_types = 2 + pick(3);       // R0..R{n-1}
  size_t num_activities = 2 + pick(2);  // A0..A{n-1}

  // ---- RDL: a Staff hierarchy with random shape and instances ----------
  c.rdl = "Define Resource Type Staff (Grade Int, Region String);\n";
  for (size_t i = 0; i < num_types; ++i) {
    std::string parent =
        (i > 0 && pick(2) == 0) ? "R" + Num(pick(i)) : "Staff";
    c.rdl += "Define Resource Type R" + Num(i) + " Under " + parent + ";\n";
  }
  c.rdl += "Define Activity Type Job;\n";
  for (size_t j = 0; j < num_activities; ++j) {
    c.rdl += "Define Activity Type A" + Num(j) + " Under Job (Size Int);\n";
  }
  for (size_t i = 0; i < num_types; ++i) {
    size_t instances = 2 + pick(3);
    for (size_t k = 0; k < instances; ++k) {
      c.rdl += "Insert Resource R" + Num(i) + " 'r" + Num(i) + "_" + Num(k) +
               "' (Grade = " + Num(pick(10)) + ", Region = '" +
               kRegions[pick(4)] + "');\n";
    }
  }

  // ---- PL: qualifications, requirements, substitutions -----------------
  std::vector<std::vector<size_t>> qualified(num_activities);
  for (size_t j = 0; j < num_activities; ++j) {
    // Mostly qualified activities, with a deliberate CWA-unstaffable
    // minority so UNSAT cores stay exercised.
    size_t qualifies = pick(4) == 0 ? 0 : 1 + pick(2);
    for (size_t q = 0; q < qualifies; ++q) {
      size_t type = pick(num_types);
      qualified[j].push_back(type);
      c.pl += "Qualify R" + Num(type) + " For A" + Num(j) + ";\n";
    }
    if (pick(2) == 0) {
      std::string target =
          pick(2) == 0 ? "Staff" : "R" + Num(pick(num_types));
      c.pl += "Require " + target + " Where Grade >= " + Num(pick(6)) +
              " For A" + Num(j) + " With Size >= " + Num(pick(50)) + ";\n";
    }
    if (pick(2) == 0) {
      c.pl += "Substitute R" + Num(pick(num_types)) + " Where Region = '" +
              kRegions[pick(4)] + "' By R" + Num(pick(num_types)) +
              " For A" + Num(j) + " With Size < " + Num(50 + pick(100)) +
              ";\n";
    }
  }
  if (c.pl.empty()) c.pl = "Qualify R0 For A0;\n";

  // ---- Workflow: tasks plus random binding constraints -----------------
  size_t num_tasks = 2 + pick(3);
  c.workflow = "Workflow Case;\n";
  for (size_t t = 0; t < num_tasks; ++t) {
    size_t activity = pick(num_activities);
    // Mostly coherent (activity, type) pairs — Staff fans out to every
    // qualified subtype, a qualified type hits directly; the random
    // minority keeps unqualified-task UNSAT cores in the corpus.
    std::string rtype;
    if (pick(3) != 0 && !qualified[activity].empty()) {
      size_t q = pick(qualified[activity].size() + 1);
      rtype = q == qualified[activity].size()
                  ? "Staff"
                  : "R" + Num(qualified[activity][q]);
    } else {
      rtype = pick(3) == 0 ? "Staff" : "R" + Num(pick(num_types));
    }
    std::string where =
        pick(2) == 0 ? " Where Grade >= " + Num(pick(5)) : "";
    c.workflow += "Task t" + Num(t) + ": Select Id From " + rtype + where +
                  " For A" + Num(activity) + " With Size = " + Num(pick(100)) +
                  ";\n";
  }
  size_t num_constraints = pick(3);
  for (size_t n = 0; n < num_constraints; ++n) {
    std::vector<size_t> tasks(num_tasks);
    for (size_t i = 0; i < num_tasks; ++i) tasks[i] = i;
    for (size_t i = 0; i + 1 < num_tasks; ++i) {
      std::swap(tasks[i], tasks[i + pick(num_tasks - i)]);
    }
    size_t scope = 2 + pick(num_tasks - 1);
    std::string list;
    for (size_t i = 0; i < scope; ++i) {
      if (i > 0) list += ", ";
      list += "t" + Num(tasks[i]);
    }
    switch (pick(3)) {
      case 0:
        c.workflow += "Bind " + list + ";\n";
        break;
      case 1:
        c.workflow += "Separate " + list + ";\n";
        break;
      default:
        c.workflow +=
            "AtMost " + Num(1 + pick(scope - 1)) + " Of " + list + ";\n";
        break;
    }
  }
  return c;
}

Status RunDifferentialCase(uint64_t seed, DifferentialCase* out) {
  DifferentialCase c = GenerateCase(seed);
  if (out != nullptr) *out = c;

  org::OrgModel org;
  WFRM_RETURN_NOT_OK(org::ExecuteRdl(c.rdl, &org));
  policy::PolicyStore store(&org);
  WFRM_RETURN_NOT_OK(store.AddPolicyText(c.pl));
  core::ResourceManager rm(&org, &store);
  WFRM_ASSIGN_OR_RETURN(WorkflowSpec spec, ParseWorkflowSpec(c.workflow));

  WorkflowAnalyzer analyzer(&rm);
  AnalysisReport analysis;
  {
    WFRM_ASSIGN_OR_RETURN(analysis, analyzer.Analyze(spec));
  }
  if (out != nullptr) {
    out->satisfiable = analysis.solve.satisfiable;
    out->report = analysis.ToString();
    for (const StepCandidates& step : analysis.candidates) {
      out->candidate_total += step.candidates.size();
    }
  }

  // Judge 1+2: a claimed witness must satisfy the constraints (checked
  // independently) and every assignment must come from the oracle.
  if (analysis.solve.satisfiable) {
    std::vector<org::ResourceRef> picks;
    for (const WspAssignment& a : analysis.solve.witness) {
      picks.push_back(a.resource);
    }
    if (analysis.solve.witness.size() != spec.steps.size() ||
        !AssignmentSatisfies(spec, picks)) {
      return Status::ExecutionError(
          "solver witness violates the workflow constraints (seed " +
          Num(seed) + ")");
    }
    for (size_t i = 0; i < spec.steps.size(); ++i) {
      WFRM_RETURN_NOT_OK(VerifyAgainstOracle(&rm, spec.steps[i].rql,
                                             analysis.solve.witness[i]));
    }
  }

  // Judge 3: brute force must agree on satisfiability, and on the
  // minimum cost in valued mode.
  WFRM_ASSIGN_OR_RETURN(
      auto brute, BruteForceWitness(spec, analysis.candidates));
  if (brute.has_value() != analysis.solve.satisfiable) {
    return Status::ExecutionError(
        std::string("solver/brute-force disagreement: solver says ") +
        (analysis.solve.satisfiable ? "SAT" : "UNSAT") +
        ", brute force says " + (brute.has_value() ? "SAT" : "UNSAT") +
        " (seed " + Num(seed) + ")");
  }

  SolveOptions valued;
  valued.valued = true;
  WFRM_ASSIGN_OR_RETURN(SolveResult valued_solve,
                        SolveWsp(spec, analysis.candidates, valued));
  int64_t brute_min = BruteForceMinCost(spec, analysis.candidates);
  if (valued_solve.satisfiable != (brute_min >= 0)) {
    return Status::ExecutionError(
        "valued solver/brute-force SAT disagreement (seed " + Num(seed) +
        ")");
  }
  if (valued_solve.satisfiable && valued_solve.total_cost != brute_min) {
    return Status::ExecutionError(
        "valued solver found cost " + Num(valued_solve.total_cost) +
        " but the brute-forced optimum is " + Num(brute_min) + " (seed " +
        Num(seed) + ")");
  }
  return Status::OK();
}

Status DumpRepro(const DifferentialCase& c, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot create repro dir " + dir + ": " +
                                  ec.message());
  }
  std::string base = dir + "/case-" + Num(c.seed);
  struct {
    const char* suffix;
    const std::string* body;
  } files[] = {{".rdl", &c.rdl},
               {".pl", &c.pl},
               {".wf", &c.workflow},
               {".report.txt", &c.report}};
  for (const auto& f : files) {
    std::ofstream stream(base + f.suffix, std::ios::trunc);
    stream << *f.body;
    if (!stream.good()) {
      return Status::ExecutionError("cannot write " + base + f.suffix);
    }
  }
  return Status::OK();
}

}  // namespace wfrm::analysis
