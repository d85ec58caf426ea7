#ifndef WFRM_POLICY_REWRITER_H_
#define WFRM_POLICY_REWRITER_H_

#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "policy/policy_store.h"
#include "rql/rql.h"

namespace wfrm::policy {

/// Implements the three policy-enforcement rewritings of paper §4.
///
/// All rewritings take a *bound* RqlQuery (see rql::BindRql) and produce
/// bound queries. Activity-attribute parameters (`[Attr]`) occurring in
/// policy conditions are substituted with the query's activity
/// specification values, so rewritten queries are self-contained — the
/// textual outputs of Figures 10–12 fall out of ToString().
class Rewriter {
 public:
  Rewriter(const org::OrgModel* org, const PolicyStore* store)
      : org_(org), store_(store) {}

  /// §4.1, Figure 10: replaces the requested resource type by each of
  /// its sub-types qualified (via qualification policies, under the CWA)
  /// for some super-type of the query's activity. An empty result means
  /// no resource type may carry out the activity.
  ///
  /// All three rewritings take an optional trace span: when non-null, a
  /// child span is recorded with the stage's decisions (matched policy
  /// PIDs, fan-out sizes, rendered conjuncts/alternatives). The null
  /// path costs one branch.
  Result<std::vector<rql::RqlQuery>> RewriteQualification(
      const rql::RqlQuery& query, obs::TraceSpan* parent = nullptr) const;

  /// §4.2, Figure 11: conjoins the Where clauses of all relevant
  /// requirement policies onto the query (one per policy group — DNF
  /// splitting must not duplicate enforcement).
  Result<rql::RqlQuery> RewriteRequirement(
      const rql::RqlQuery& query, obs::TraceSpan* parent = nullptr) const;

  /// §4.3, Figure 12: one alternative query per relevant substitution
  /// policy, with the From/Where replaced by the substituting resource
  /// and its description. Alternatives are deduplicated.
  Result<std::vector<rql::RqlQuery>> RewriteSubstitution(
      const rql::RqlQuery& query, obs::TraceSpan* parent = nullptr) const;

  /// Canonical cache key of a bound query — the text every enforcement
  /// cache (PolicyManager's prepared memo for bound queries, cycle
  /// protection in PrepareAlternativesRounds) keys on. Bound queries
  /// render type and attribute names in canonical spelling, so textual
  /// equality is semantic equality.
  static std::string EnforcementKey(const rql::RqlQuery& query) {
    return query.ToString();
  }

 private:
  const org::OrgModel* org_;
  const PolicyStore* store_;
};

/// Replaces every `[Name]` parameter with the constant bound to `Name`
/// in `params`, recursing into subqueries. Fails on unbound parameters.
Result<rel::ExprPtr> SubstituteParameters(const rel::Expr& expr,
                                          const rel::ParamMap& params);

}  // namespace wfrm::policy

#endif  // WFRM_POLICY_REWRITER_H_
