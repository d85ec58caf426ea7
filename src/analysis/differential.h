#ifndef WFRM_ANALYSIS_DIFFERENTIAL_H_
#define WFRM_ANALYSIS_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace wfrm::analysis {

/// One generated differential instance: a complete random world (RDL
/// org model, PL policy set, workflow spec) plus what happened when the
/// analyzer ran on it. Every field is reproducible from `seed` alone —
/// the scripts round-trip through the normal parsers, so a dumped case
/// replays byte-identically.
struct DifferentialCase {
  uint64_t seed = 0;
  std::string rdl;
  std::string pl;
  std::string workflow;

  /// Filled in by RunDifferentialCase.
  bool satisfiable = false;
  size_t candidate_total = 0;
  std::string report;
};

/// Deterministically generates the scripts for `seed` (outcome fields
/// untouched).
DifferentialCase GenerateCase(uint64_t seed);

/// The oracle-differential check (ISSUE 8): builds the world of `seed`,
/// derives every step's candidate set through the live enforcement
/// pipeline, solves, and then cross-examines the solver with three
/// independent judges:
///
///  * a claimed witness is checked per-activity against a fresh
///    `Submit` — every assignment must be a resource the enforcement
///    oracle itself offers (substitution-tier picks are confirmed by
///    re-submitting with the primaries treated as busy);
///  * a claimed witness is checked against the spec's constraints by a
///    direct re-implementation that shares no code with the solver;
///  * a claimed UNSAT is confirmed by brute-force enumeration of the
///    full candidate product, and valued mode's minimum cost is compared
///    against the brute-forced optimum.
///
/// Returns OK when every check agrees; otherwise an ExecutionError
/// naming the first disagreement. `out` (optional) receives the case —
/// on failure, dump it with DumpRepro for an offline replay.
Status RunDifferentialCase(uint64_t seed, DifferentialCase* out = nullptr);

/// Writes `<dir>/case-<seed>.{rdl,pl,wf,report.txt}` (creating `dir` if
/// needed) so a failing seed can be replayed outside the harness.
Status DumpRepro(const DifferentialCase& c, const std::string& dir);

}  // namespace wfrm::analysis

#endif  // WFRM_ANALYSIS_DIFFERENTIAL_H_
