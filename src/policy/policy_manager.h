#ifndef WFRM_POLICY_POLICY_MANAGER_H_
#define WFRM_POLICY_POLICY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lru_cache.h"
#include "common/request_context.h"
#include "common/result.h"
#include "policy/rewriter.h"
#include "rel/executor.h"

namespace wfrm::policy {

/// What the policy manager hands back for one incoming RQL query: the
/// fully enforced queries to run, plus trace information for
/// explainability.
struct EnforcedQueries {
  /// The enhanced queries (qualification fan-out, then requirement
  /// enhancement of each). Empty means the CWA ruled every resource
  /// type out (§3.1).
  std::vector<rql::RqlQuery> queries;

  /// The qualified sub-types the fan-out produced, aligned with
  /// `queries`.
  std::vector<std::string> qualified_types;

  /// Deep copy (RqlQuery is move-only); what the rewrite cache stores
  /// and serves.
  EnforcedQueries Clone() const;
};

/// One enforced query of a prepared entry, ready to execute.
struct PreparedScan {
  /// The enforced query and the qualified sub-type it came from; both
  /// owned by the entry.
  const rql::RqlQuery* query = nullptr;
  const std::string* qualified_type = nullptr;
  /// `query->ToString()`, rendered once.
  std::string text;
  /// The query's SELECT with `Id` prepended (availability and allocation
  /// track resources by Id), bound once against the org catalog.
  std::unique_ptr<const rel::BoundSelect> select;
};

/// Everything about one request that depends only on its text, the
/// policy base and the org catalog: the bound query, its §4.1 + §4.2
/// enforcement, and one bound scan per enforced query. Built once per
/// (text, store epoch, catalog version) and then shared immutably; what
/// a request reads live — rows, relationship tuples, leases, health —
/// is left to the scans' Run and the caller.
struct PreparedEnforcement {
  PreparedEnforcement() = default;
  PreparedEnforcement(const PreparedEnforcement&) = delete;
  PreparedEnforcement& operator=(const PreparedEnforcement&) = delete;

  rql::RqlQuery query;
  EnforcedQueries enforced;
  /// Aligned with `enforced.queries`; points into this entry.
  std::vector<PreparedScan> scans;
  /// PolicyStore::epoch() and the org catalog version before the rewrite
  /// began. The entry is served only while both still match: the epoch
  /// covers policies and both hierarchies, the catalog covers tables and
  /// views a Where subquery may read.
  uint64_t epoch = 0;
  uint64_t catalog_version = 0;
};

/// One §4.3 substitution round as prepared entries.
struct PreparedRound {
  /// The alternatives' entries; they own `scans`.
  std::vector<std::shared_ptr<const PreparedEnforcement>> entries;
  /// The round's enforced queries in emission order, each rendering once
  /// across rounds.
  std::vector<const PreparedScan*> scans;
};

/// The policy manager of Figure 1: receives a resource query from the
/// query processor, rewrites it against the policy base, and (on
/// resource unavailability) generates substitution alternatives — each
/// of which re-enters qualification + requirement rewriting. Substitution
/// is never applied transitively (§1.2/§2.1): alternatives get no second
/// round of substitution.
///
/// Enforcement is memoized as one PreparedEnforcement per key in a
/// bounded LRU: the request text for ResourceManager::Submit, probed
/// before parsing, and the canonical rendering for a bound query. An
/// entry is tagged with the store epoch and org catalog version it was
/// built at; a probe at either newer version drops it and rebuilds.
/// Entries are immutable and shared by pointer. The memo honours the
/// store's `cache_enabled()` switch and reports its traffic through the
/// store's rewrite_cache_* counters, one probe per prepared request.
class PolicyManager {
 public:
  PolicyManager(const org::OrgModel* org, const PolicyStore* store,
                size_t rewrite_cache_capacity = 1024)
      : org_(org), store_(store), rewriter_(org, store),
        memo_(rewrite_cache_capacity) {}

  /// Primary enforcement: §4.1 fan-out then §4.2 enhancement, as a deep
  /// copy for callers that mutate the result.
  ///
  /// With a non-null `parent` span, an "enforce_primary" child records
  /// the memo outcome and the full per-stage decision log (matched policy
  /// PIDs, fan-out, conjuncts). A traced probe is counted, but a hit is
  /// recomputed so the trace is complete.
  Result<EnforcedQueries> EnforcePrimary(const rql::RqlQuery& query,
                                         obs::TraceSpan* parent = nullptr)
      const;

  /// Copy-free variant of EnforcePrimary: the prepared entry for
  /// `query`, probed under its canonical rendering, viewed as its
  /// enforced queries.
  ///
  /// With a non-null `ctx`, the rewrite aborts typed
  /// (kDeadlineExceeded/kCancelled) at the qualification/requirement
  /// stage boundary once the request is no longer worth enforcing for.
  Result<std::shared_ptr<const EnforcedQueries>> EnforcePrimaryShared(
      const rql::RqlQuery& query, obs::TraceSpan* parent = nullptr,
      const RequestContext* ctx = nullptr) const;

  /// The memo probe ResourceManager::Submit makes before parsing: the
  /// live entry stored under the raw request `text`, refreshed as most
  /// recently used. Counts one probe; nullptr on a miss or a stale entry
  /// (dropped), and — uncounted — with the memo off.
  std::shared_ptr<const PreparedEnforcement> FindPrepared(
      std::string_view text) const;

  /// Prepares bound `query` and memoizes it under `key`. With `probe`
  /// the memo is probed first (counted) and a live untraced hit served;
  /// without, the caller already probed `key` through FindPrepared and
  /// missed. A miss is published only if neither version moved while it
  /// was built. Tracing and `ctx` behave as in EnforcePrimaryShared.
  Result<std::shared_ptr<const PreparedEnforcement>> Prepare(
      rql::RqlQuery&& query, std::string_view key, bool probe,
      obs::TraceSpan* parent = nullptr,
      const RequestContext* ctx = nullptr) const;
  /// Prepare for a query the caller keeps; it is cloned only on a build.
  Result<std::shared_ptr<const PreparedEnforcement>> Prepare(
      const rql::RqlQuery& query, std::string_view key, bool probe,
      obs::TraceSpan* parent = nullptr,
      const RequestContext* ctx = nullptr) const;

  /// Fallback enforcement: §4.3 alternatives from substitution policies,
  /// each then treated as a new query (qualification + requirement).
  /// The input must be the *initial* query, not an enforced one.
  Result<EnforcedQueries> EnforceAlternatives(
      const rql::RqlQuery& query) const;

  /// Extension of the §1.2 discussion: the paper rejects transitive
  /// substitution ("one does not want any compromise to continue
  /// indefinitely") and fixes one round; this implements the recursive
  /// variant with an explicit round bound and cycle protection, so the
  /// trade-off is measurable. Element r of the result holds the enforced
  /// queries reachable after r+1 substitution steps; alternatives seen
  /// in earlier rounds are not revisited. EnforceAlternatives(q) equals
  /// EnforceAlternativesRounds(q, 1)[0].
  /// `ctx` (optional) is checked before every substitution round: an
  /// expired or cancelled request stops fanning out alternatives.
  Result<std::vector<EnforcedQueries>> EnforceAlternativesRounds(
      const rql::RqlQuery& query, size_t rounds,
      obs::TraceSpan* parent = nullptr,
      const RequestContext* ctx = nullptr) const;

  /// EnforceAlternativesRounds as prepared entries: every alternative
  /// re-enters Prepare under its canonical rendering, so its scans are
  /// bound once and memoized like a primary request's.
  Result<std::vector<PreparedRound>> PrepareAlternativesRounds(
      const rql::RqlQuery& query, size_t rounds,
      obs::TraceSpan* parent = nullptr,
      const RequestContext* ctx = nullptr) const;

  const Rewriter& rewriter() const { return rewriter_; }
  const PolicyStore& store() const { return *store_; }

  /// Entries currently held by the memo (tests/benches).
  size_t rewrite_cache_size() const { return memo_.size(); }

 private:
  bool memo_enabled() const {
    return store_->cache_enabled() && memo_.capacity() > 0;
  }

  /// Probes the memo under `key` at the current store epoch and catalog
  /// version, counting the probe in the store's rewrite_cache_* counters.
  std::shared_ptr<const PreparedEnforcement> Probe(std::string_view key,
                                                   CacheLookup* outcome) const;

  /// Prepare for a query the caller either hands over (`owned`, which
  /// must be `&query`) or keeps (null: cloned only if a build needs it).
  Result<std::shared_ptr<const PreparedEnforcement>> PrepareImpl(
      const rql::RqlQuery& query, rql::RqlQuery* owned, std::string_view key,
      bool probe, obs::TraceSpan* parent, const RequestContext* ctx) const;

  /// The rewrite, rendering and binding of one entry, stamped with the
  /// versions observed before it began.
  Result<std::shared_ptr<const PreparedEnforcement>> Build(
      rql::RqlQuery query, obs::TraceSpan* span,
      const RequestContext* ctx) const;

  const org::OrgModel* org_;
  const PolicyStore* store_;
  Rewriter rewriter_;
  mutable LruCache<PreparedEnforcement> memo_;
};

}  // namespace wfrm::policy

#endif  // WFRM_POLICY_POLICY_MANAGER_H_
