#include "policy/policy_manager.h"

#include <memory>
#include <set>
#include <string_view>
#include <utility>

namespace wfrm::policy {

EnforcedQueries EnforcedQueries::Clone() const {
  EnforcedQueries out;
  out.queries.reserve(queries.size());
  for (const rql::RqlQuery& q : queries) out.queries.push_back(q.Clone());
  out.qualified_types = qualified_types;
  return out;
}

Result<EnforcedQueries> PolicyManager::EnforcePrimary(
    const rql::RqlQuery& query, obs::TraceSpan* parent) const {
  WFRM_ASSIGN_OR_RETURN(std::shared_ptr<const EnforcedQueries> shared,
                        EnforcePrimaryShared(query, parent));
  return shared->Clone();
}

Result<std::shared_ptr<const EnforcedQueries>>
PolicyManager::EnforcePrimaryShared(const rql::RqlQuery& query,
                                    obs::TraceSpan* parent,
                                    const RequestContext* ctx) const {
  WFRM_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedEnforcement> entry,
                        Prepare(query, Rewriter::EnforcementKey(query),
                                /*probe=*/true, parent, ctx));
  return std::shared_ptr<const EnforcedQueries>(entry, &entry->enforced);
}

std::shared_ptr<const PreparedEnforcement> PolicyManager::Probe(
    std::string_view key, CacheLookup* outcome) const {
  const uint64_t epoch = store_->epoch();
  const uint64_t catalog_version = org_->db().catalog_version();
  auto hit = memo_.Get(
      key,
      [&](const PreparedEnforcement& entry) {
        return entry.epoch == epoch &&
               entry.catalog_version == catalog_version;
      },
      outcome);
  store_->NoteRewriteLookup(*outcome);
  return hit;
}

std::shared_ptr<const PreparedEnforcement> PolicyManager::FindPrepared(
    std::string_view text) const {
  if (!memo_enabled()) return nullptr;
  CacheLookup outcome;
  return Probe(text, &outcome);
}

Result<std::shared_ptr<const PreparedEnforcement>> PolicyManager::Prepare(
    rql::RqlQuery&& query, std::string_view key, bool probe,
    obs::TraceSpan* parent, const RequestContext* ctx) const {
  return PrepareImpl(query, &query, key, probe, parent, ctx);
}

Result<std::shared_ptr<const PreparedEnforcement>> PolicyManager::Prepare(
    const rql::RqlQuery& query, std::string_view key, bool probe,
    obs::TraceSpan* parent, const RequestContext* ctx) const {
  return PrepareImpl(query, nullptr, key, probe, parent, ctx);
}

Result<std::shared_ptr<const PreparedEnforcement>> PolicyManager::PrepareImpl(
    const rql::RqlQuery& query, rql::RqlQuery* owned, std::string_view key,
    bool probe, obs::TraceSpan* parent, const RequestContext* ctx) const {
  obs::ScopedSpan span(parent, "enforce_primary");
  const bool use_memo = memo_enabled();
  bool hit = false;
  if (use_memo && probe) {
    CacheLookup outcome;
    auto entry = Probe(key, &outcome);
    obs::Attr(span, "rewrite_cache", CacheLookupName(outcome));
    if (entry != nullptr) {
      // Untraced: serve the entry. Traced: record the hit but recompute
      // the stages so the decision log names the policies that fired.
      if (span.get() == nullptr) return entry;
      hit = true;
    }
  } else if (!use_memo) {
    obs::Attr(span, "rewrite_cache", "off");
  }
  WFRM_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedEnforcement> entry,
      Build(owned != nullptr ? std::move(*owned) : query.Clone(), span, ctx));
  // Publish only if no mutation interleaved with the build; a torn entry
  // would otherwise survive until the next version bump.
  if (use_memo && !hit && store_->epoch() == entry->epoch &&
      org_->db().catalog_version() == entry->catalog_version) {
    memo_.Put(key, entry);
  }
  return entry;
}

Result<std::shared_ptr<const PreparedEnforcement>> PolicyManager::Build(
    rql::RqlQuery query, obs::TraceSpan* span,
    const RequestContext* ctx) const {
  auto entry = std::make_shared<PreparedEnforcement>();
  entry->epoch = store_->epoch();
  entry->catalog_version = org_->db().catalog_version();
  entry->query = std::move(query);
  WFRM_ASSIGN_OR_RETURN(std::vector<rql::RqlQuery> fanned,
                        rewriter_.RewriteQualification(entry->query, span));
  // Stage boundary (§4.1 → §4.2): the fan-out can be wide, and each
  // fanned query pays a requirement rewrite — don't start them for a
  // request nobody is waiting on.
  WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
  EnforcedQueries& enforced = entry->enforced;
  for (rql::RqlQuery& q : fanned) {
    std::string type = q.resource();
    WFRM_ASSIGN_OR_RETURN(rql::RqlQuery enhanced,
                          rewriter_.RewriteRequirement(q, span));
    enforced.qualified_types.push_back(std::move(type));
    enforced.queries.push_back(std::move(enhanced));
  }
  // Render and bind each enforced query once per entry. Execution
  // tracks resources by Id, so the scan's select list starts with it.
  entry->scans.reserve(enforced.queries.size());
  auto org_lock = org_->ReadLock();
  for (size_t i = 0; i < enforced.queries.size(); ++i) {
    const rql::RqlQuery& q = enforced.queries[i];
    rel::SelectPtr select = q.select->Clone();
    rel::SelectItem id_item;
    id_item.expr = rel::MakeColumnRef("Id");
    id_item.alias = "Id";
    select->items.insert(select->items.begin(), std::move(id_item));
    entry->scans.push_back(PreparedScan{
        &q, &enforced.qualified_types[i], q.ToString(),
        std::make_unique<const rel::BoundSelect>(
            org_->db(), std::move(select), q.spec.AsParams())});
  }
  return std::shared_ptr<const PreparedEnforcement>(std::move(entry));
}

Result<EnforcedQueries> PolicyManager::EnforceAlternatives(
    const rql::RqlQuery& query) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<EnforcedQueries> rounds,
                        EnforceAlternativesRounds(query, 1));
  return std::move(rounds[0]);
}

Result<std::vector<EnforcedQueries>> PolicyManager::EnforceAlternativesRounds(
    const rql::RqlQuery& query, size_t rounds, obs::TraceSpan* parent,
    const RequestContext* ctx) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<PreparedRound> prepared,
                        PrepareAlternativesRounds(query, rounds, parent, ctx));
  std::vector<EnforcedQueries> out(prepared.size());
  for (size_t r = 0; r < prepared.size(); ++r) {
    for (const PreparedScan* scan : prepared[r].scans) {
      out[r].queries.push_back(scan->query->Clone());
      out[r].qualified_types.push_back(*scan->qualified_type);
    }
  }
  return out;
}

Result<std::vector<PreparedRound>> PolicyManager::PrepareAlternativesRounds(
    const rql::RqlQuery& query, size_t rounds, obs::TraceSpan* parent,
    const RequestContext* ctx) const {
  obs::ScopedSpan alt_span(parent, "enforce_alternatives");
  obs::Attr(alt_span, "max_rounds", static_cast<int64_t>(rounds));
  std::vector<PreparedRound> out;
  // Alternatives already explored, keyed by their pre-enforcement text —
  // this is the cycle protection that makes the recursive variant
  // terminate (A substitutable by B and B by A would otherwise ping-pong
  // forever, the paper's "indefinite compromise").
  std::set<std::string> seen_alternatives;
  seen_alternatives.insert(query.ToString());
  // Final enforced queries already emitted in some round.
  std::set<std::string_view> seen_enforced;

  // Each round's sources; alternatives are owned by the previous round's
  // entries.
  std::vector<const rql::RqlQuery*> frontier = {&query};

  for (size_t round = 0; round < rounds && !frontier.empty(); ++round) {
    // Stage boundary: each round re-enters the full primary pipeline per
    // alternative; stop fanning out for a dead request.
    WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
    obs::ScopedSpan round_span(alt_span, "round");
    obs::Attr(round_span, "round", static_cast<int64_t>(round + 1));
    PreparedRound this_round;
    std::vector<const rql::RqlQuery*> next_frontier;
    for (const rql::RqlQuery* source : frontier) {
      WFRM_ASSIGN_OR_RETURN(std::vector<rql::RqlQuery> alternatives,
                            rewriter_.RewriteSubstitution(*source, round_span));
      for (rql::RqlQuery& alt : alternatives) {
        std::string key = Rewriter::EnforcementKey(alt);
        if (!seen_alternatives.insert(key).second) continue;
        // Each alternative re-enters the primary pipeline (§2.1).
        WFRM_ASSIGN_OR_RETURN(
            std::shared_ptr<const PreparedEnforcement> entry,
            Prepare(std::move(alt), key, /*probe=*/true, round_span));
        for (const PreparedScan& scan : entry->scans) {
          if (seen_enforced.insert(scan.text).second) {
            this_round.scans.push_back(&scan);
          }
        }
        next_frontier.push_back(&entry->query);
        this_round.entries.push_back(std::move(entry));
      }
    }
    out.push_back(std::move(this_round));
    frontier = std::move(next_frontier);
  }
  // Pad so callers can index by round even when the frontier dried up.
  while (out.size() < rounds) out.emplace_back();
  return out;
}

}  // namespace wfrm::policy
