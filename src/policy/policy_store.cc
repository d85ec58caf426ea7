#include "policy/policy_store.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "policy/key_encoding.h"
#include "rel/parser.h"

namespace wfrm::policy {

namespace {

using namespace relations;  // NOLINT: the table names.

rel::Schema FilterSchema() {
  return rel::Schema({{"PID", rel::DataType::kInt},
                      {"Attribute", rel::DataType::kString},
                      {"LowerBound", rel::DataType::kString},
                      {"UpperBound", rel::DataType::kString},
                      {"LowerInclusive", rel::DataType::kBool},
                      {"UpperInclusive", rel::DataType::kBool}});
}

/// Case-insensitive name set for hierarchy membership tests.
using NameSet = std::unordered_set<std::string, CaseInsensitiveHash,
                                   CaseInsensitiveEq>;

NameSet ToSet(const std::vector<std::string>& names) {
  return NameSet(names.begin(), names.end());
}

/// True when some disjunct of an activity range holds the bindings.
Result<bool> AnyRangeContains(const std::vector<ConjunctiveRange>& ranges,
                              const rel::ParamMap& bindings) {
  for (const ConjunctiveRange& range : ranges) {
    WFRM_ASSIGN_OR_RETURN(bool x, RangeContainsBindings(range, bindings));
    if (x) return true;
  }
  return false;
}

/// §4.3 condition 2: a substituted range clause (stored text; empty
/// means unrestricted) meets some disjunct of the query's range.
Result<bool> RangeClauseMeets(const std::string& clause,
                              const std::vector<ConjunctiveRange>& query) {
  if (clause.empty()) return true;
  WFRM_ASSIGN_OR_RETURN(rel::ExprPtr parsed, rel::SqlParser::ParseExpr(clause));
  WFRM_ASSIGN_OR_RETURN(std::vector<ConjunctiveRange> ranges,
                        NormalizeRangeClause(parsed.get()));
  for (const ConjunctiveRange& q : query) {
    for (const ConjunctiveRange& r : ranges) {
      WFRM_ASSIGN_OR_RETURN(bool x, RangesIntersect(q, r));
      if (x) return true;
    }
  }
  return false;
}

}  // namespace

StoreStatsSnapshot StoreStatsSnapshot::operator-(
    const StoreStatsSnapshot& earlier) const {
  StoreStatsSnapshot d;
  d.retrievals = retrievals - earlier.retrievals;
  d.candidate_rows = candidate_rows - earlier.candidate_rows;
  d.interval_rows = interval_rows - earlier.interval_rows;
  d.cache_hits = cache_hits - earlier.cache_hits;
  d.cache_misses = cache_misses - earlier.cache_misses;
  d.cache_invalidations = cache_invalidations - earlier.cache_invalidations;
  d.rewrite_cache_hits = rewrite_cache_hits - earlier.rewrite_cache_hits;
  d.rewrite_cache_misses = rewrite_cache_misses - earlier.rewrite_cache_misses;
  d.compiled_builds = compiled_builds - earlier.compiled_builds;
  d.compiled_probes = compiled_probes - earlier.compiled_probes;
  d.bloom_probes = bloom_probes - earlier.bloom_probes;
  d.bloom_skips = bloom_skips - earlier.bloom_skips;
  d.epoch = epoch;
  return d;
}

namespace relations {

void CreatePolicyRelations(rel::Database* db) {
  // Table creation on a fresh database cannot fail.
  rel::Table* quals =
      *db->CreateTable(kQualifications,
                       rel::Schema({{"PID", rel::DataType::kInt},
                                    {"Resource", rel::DataType::kString},
                                    {"Activity", rel::DataType::kString}}));
  (void)quals->CreateOrderedIndex("quals_by_activity", {"Activity"});

  rel::Table* policies = *db->CreateTable(
      kPolicies, rel::Schema({{"PID", rel::DataType::kInt},
                              {"GroupID", rel::DataType::kInt},
                              {"Activity", rel::DataType::kString},
                              {"Resource", rel::DataType::kString},
                              {"NumberOfIntervals", rel::DataType::kInt},
                              {"WhereClause", rel::DataType::kString}}));
  // §5.2: "we may create a concatenated index on attributes Activity and
  // Resource".
  (void)policies->CreateOrderedIndex("policies_act_res",
                                     {"Activity", "Resource"});

  rel::Table* filter = *db->CreateTable(kFilter, FilterSchema());
  // §5.2: "a concatenated index on attributes Attribute, LowerBound and
  // UpperBound".
  (void)filter->CreateOrderedIndex("filter_attr_bounds",
                                   {"Attribute", "LowerBound", "UpperBound"});
  // Per-candidate interval lookup: the compiled-table build and the
  // Policies-first join order.
  (void)filter->CreateHashIndex("filter_by_pid", {"PID"});

  rel::Table* subst = *db->CreateTable(
      kSubstPolicies,
      rel::Schema({{"PID", rel::DataType::kInt},
                   {"GroupID", rel::DataType::kInt},
                   {"Activity", rel::DataType::kString},
                   {"Resource", rel::DataType::kString},
                   {"NumberOfIntervals", rel::DataType::kInt},
                   {"SubstitutedWhere", rel::DataType::kString},
                   {"SubstitutingResource", rel::DataType::kString},
                   {"SubstitutingWhere", rel::DataType::kString}}));
  (void)subst->CreateOrderedIndex("subst_act_res", {"Activity", "Resource"});

  rel::Table* subst_filter = *db->CreateTable(kSubstFilter, FilterSchema());
  (void)subst_filter->CreateOrderedIndex(
      "subst_filter_attr_bounds", {"Attribute", "LowerBound", "UpperBound"});
}

Status LoadRows(const PolicyImage& image, rel::Database* db) {
  struct Load {
    const char* table;
    const std::vector<rel::Row>* rows;
  };
  const Load loads[] = {{kQualifications, &image.qualifications},
                        {kPolicies, &image.policies},
                        {kFilter, &image.filter},
                        {kSubstPolicies, &image.subst_policies},
                        {kSubstFilter, &image.subst_filter}};
  for (const Load& load : loads) {
    rel::Table* table = db->GetTable(load.table);
    table->Clear();
    for (const rel::Row& row : *load.rows) {
      WFRM_RETURN_NOT_OK(table->Insert(row).status());
    }
  }
  return Status::OK();
}

std::vector<CandidateRow> CandidatePolicies(
    const rel::Database& db, const char* table,
    const std::vector<std::string>& activities,
    const std::vector<std::string>& resources, ScanWork* work) {
  const rel::Table* policies = db.GetTable(table);
  const rel::OrderedIndex* idx = policies->ordered_indexes()[0].get();
  std::vector<CandidateRow> out;
  for (const std::string& a : activities) {
    for (const std::string& r : resources) {
      rel::IndexProbe probe;
      probe.equals = {rel::Value::String(a), rel::Value::String(r)};
      for (rel::RowId rid : idx->Scan(probe)) {
        if (!policies->IsLive(rid)) continue;
        ++work->candidate_rows;
        const rel::Row& row = policies->row(rid);
        out.push_back(CandidateRow{row[0].int_value(), row[1].int_value(),
                                   row[4].int_value(), &row});
      }
    }
  }
  return out;
}

bool Encloses(const rel::Row& row, const std::string& enc) {
  const std::string& lo = row[2].string_value();
  const std::string& up = row[3].string_value();
  if (enc < lo || (enc == lo && !row[4].bool_value())) return false;
  if (up < enc || (enc == up && !row[5].bool_value())) return false;
  return true;
}

Result<std::unordered_map<int64_t, int64_t>> CountEnclosingIntervals(
    const rel::Database& db, const char* filter_table,
    const rel::ParamMap& spec, ScanWork* work) {
  const rel::Table* filter = db.GetTable(filter_table);
  const rel::OrderedIndex* idx = filter->ordered_indexes()[0].get();
  std::unordered_map<int64_t, int64_t> counts;
  for (const auto& [attr, value] : spec) {
    WFRM_ASSIGN_OR_RETURN(std::string enc, EncodeKey(value));
    // Equality on Attribute, range LowerBound <= enc; the upper bound is
    // the residual check.
    rel::IndexProbe probe;
    probe.equals = {rel::Value::String(attr)};
    probe.upper = rel::Bound{rel::Value::String(enc), /*inclusive=*/true};
    for (rel::RowId rid : idx->Scan(probe)) {
      if (!filter->IsLive(rid)) continue;
      ++work->interval_rows;
      const rel::Row& row = filter->row(rid);
      if (Encloses(row, enc)) counts[row[0].int_value()]++;
    }
  }
  return counts;
}

std::vector<RelevantRequirement> MergeCandidates(
    const std::vector<CandidateRow>& candidates,
    const std::unordered_map<int64_t, int64_t>& enclosing) {
  std::vector<RelevantRequirement> out;
  for (const CandidateRow& c : candidates) {
    auto it = enclosing.find(c.pid);
    const int64_t n = it == enclosing.end() ? 0 : it->second;
    if (c.num_intervals == 0 || n == c.num_intervals) {
      out.push_back(
          RelevantRequirement{c.pid, c.group, (*c.row)[5].string_value()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });
  return out;
}

rel::ParamMap CanonicalizeSpec(const org::OrgModel& org,
                               const std::string& activity,
                               const rel::ParamMap& spec) {
  rel::ParamMap out;
  for (const auto& [attr, value] : spec) {
    auto def = org.activities().FindAttribute(activity, attr);
    out[def.ok() ? def->name : attr] = value;
  }
  return out;
}

}  // namespace relations

PolicyStore::PolicyStore(const org::OrgModel* org) : org_(org) {
  relations::CreatePolicyRelations(&db_);
}

// ---- Validation -----------------------------------------------------------

Status PolicyStore::ValidateRangeClause(const std::string& activity,
                                        const rel::Expr* with) const {
  if (with == nullptr) return Status::OK();
  WFRM_ASSIGN_OR_RETURN(std::vector<ConjunctiveRange> ranges,
                        NormalizeRangeClause(with));
  if (ranges.empty()) {
    return Status::InvalidArgument(
        "With clause is unsatisfiable: " + with->ToString());
  }
  // Every referenced attribute must exist on the activity type and the
  // bound constants must fit its declared type.
  for (const ConjunctiveRange& range : ranges) {
    for (const auto& [attr, interval] : range) {
      WFRM_ASSIGN_OR_RETURN(org::AttributeDef def,
                            org_->activities().FindAttribute(activity, attr));
      for (const std::optional<rel::Value>* bound :
           {&interval.lower, &interval.upper}) {
        if (bound->has_value() && !(*bound)->CompatibleWith(def.type)) {
          return Status::TypeError(
              "bound " + (*bound)->ToString() + " of attribute '" + attr +
              "' is not compatible with its declared type " +
              rel::DataTypeToString(def.type));
        }
      }
    }
  }
  return Status::OK();
}

Status PolicyStore::ValidateResourceRangeClause(const std::string& resource,
                                                const rel::Expr* clause) const {
  if (clause == nullptr) return Status::OK();
  WFRM_ASSIGN_OR_RETURN(std::vector<ConjunctiveRange> ranges,
                        NormalizeRangeClause(clause));
  if (ranges.empty()) {
    return Status::InvalidArgument(
        "resource range clause is unsatisfiable: " + clause->ToString());
  }
  for (const ConjunctiveRange& range : ranges) {
    for (const auto& [attr, interval] : range) {
      (void)interval;
      WFRM_ASSIGN_OR_RETURN(org::AttributeDef def,
                            org_->resources().FindAttribute(resource, attr));
      (void)def;
    }
  }
  return Status::OK();
}

namespace {

/// Collects `[Parameter]` names appearing anywhere in an expression tree.
void CollectParameters(const rel::Expr& e, std::vector<std::string>* out);

void CollectParametersSelect(const rel::SelectStatement& s,
                             std::vector<std::string>* out) {
  for (const auto& item : s.items) {
    if (item.expr) CollectParameters(*item.expr, out);
  }
  if (s.where) CollectParameters(*s.where, out);
  if (s.connect_by) {
    CollectParameters(*s.connect_by->start_with, out);
    CollectParameters(*s.connect_by->connect, out);
  }
  if (s.union_next) CollectParametersSelect(*s.union_next, out);
}

void CollectParameters(const rel::Expr& e, std::vector<std::string>* out) {
  using rel::Expr;
  switch (e.kind()) {
    case Expr::Kind::kParameter:
      out->push_back(static_cast<const rel::ParameterExpr&>(e).name());
      return;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const rel::BinaryExpr&>(e);
      CollectParameters(b.left(), out);
      CollectParameters(b.right(), out);
      return;
    }
    case Expr::Kind::kUnary:
      CollectParameters(static_cast<const rel::UnaryExpr&>(e).operand(), out);
      return;
    case Expr::Kind::kInList: {
      const auto& in = static_cast<const rel::InListExpr&>(e);
      CollectParameters(in.needle(), out);
      for (const auto& item : in.haystack()) CollectParameters(*item, out);
      return;
    }
    case Expr::Kind::kSubquery:
      CollectParametersSelect(
          static_cast<const rel::SubqueryExpr&>(e).select(), out);
      return;
    case Expr::Kind::kInSubquery: {
      const auto& in = static_cast<const rel::InSubqueryExpr&>(e);
      CollectParameters(in.needle(), out);
      CollectParametersSelect(in.select(), out);
      return;
    }
    case Expr::Kind::kFunction: {
      const auto& fn = static_cast<const rel::FunctionExpr&>(e);
      for (const auto& arg : fn.args()) CollectParameters(*arg, out);
      return;
    }
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumnRef:
      return;
  }
}

}  // namespace

Status PolicyStore::ValidateRequirementWhere(const std::string& resource,
                                             const std::string& activity,
                                             const rel::Expr* where) const {
  (void)resource;
  if (where == nullptr) return Status::OK();
  // Every [Parameter] must name an attribute of the activity type: the
  // rewriter substitutes the activity specification's value for it.
  std::vector<std::string> params;
  CollectParameters(*where, &params);
  for (const std::string& p : params) {
    WFRM_RETURN_NOT_OK(
        org_->activities().FindAttribute(activity, p).status());
  }
  return Status::OK();
}

// ---- Insertion ------------------------------------------------------------

Result<int64_t> PolicyStore::InsertDecomposed(
    const std::string& policy_table, const std::string& filter_table,
    const std::string& activity, const std::string& resource,
    const rel::Expr* with, std::vector<rel::Value> extra_columns) {
  WFRM_ASSIGN_OR_RETURN(std::vector<ConjunctiveRange> ranges,
                        NormalizeRangeClause(with));
  if (ranges.empty()) {
    return Status::InvalidArgument("With clause is unsatisfiable");
  }
  rel::Table* policies = db_.GetTable(policy_table);
  rel::Table* filter = db_.GetTable(filter_table);
  int64_t group = next_group_++;
  for (const ConjunctiveRange& raw_range : ranges) {
    // Store attributes under their canonical declared spelling so index
    // probes (exact string equality) are case-robust.
    ConjunctiveRange range;
    for (const auto& [attr, interval] : raw_range) {
      WFRM_ASSIGN_OR_RETURN(org::AttributeDef def,
                            org_->activities().FindAttribute(activity, attr));
      range.emplace(def.name, interval);
    }
    int64_t pid = next_pid_++;
    rel::Row row = {rel::Value::Int(pid), rel::Value::Int(group),
                    rel::Value::String(activity), rel::Value::String(resource),
                    rel::Value::Int(static_cast<int64_t>(range.size()))};
    for (const rel::Value& v : extra_columns) row.push_back(v);
    WFRM_RETURN_NOT_OK(policies->Insert(row).status());
    RecordDelta(policy_table, /*deleted=*/false, row);
    for (const auto& [attr, interval] : range) {
      std::string lower = EncodedDomainMin();
      std::string upper = EncodedDomainMax();
      if (interval.lower) {
        WFRM_ASSIGN_OR_RETURN(lower, EncodeKey(*interval.lower));
      }
      if (interval.upper) {
        WFRM_ASSIGN_OR_RETURN(upper, EncodeKey(*interval.upper));
      }
      rel::Row frow = {rel::Value::Int(pid), rel::Value::String(attr),
                       rel::Value::String(std::move(lower)),
                       rel::Value::String(std::move(upper)),
                       rel::Value::Bool(interval.lower_inclusive),
                       rel::Value::Bool(interval.upper_inclusive)};
      WFRM_RETURN_NOT_OK(filter->Insert(frow).status());
      RecordDelta(filter_table, /*deleted=*/false, frow);
    }
  }
  return group;
}

Result<int64_t> PolicyStore::AddQualification(const QualificationPolicy& p) {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  WFRM_ASSIGN_OR_RETURN(std::string resource,
                        org_->resources().Canonical(p.resource));
  WFRM_ASSIGN_OR_RETURN(std::string activity,
                        org_->activities().Canonical(p.activity));
  std::unique_lock<std::shared_mutex> lock(mu_);
  int64_t pid = next_pid_++;
  rel::Row row = {rel::Value::Int(pid), rel::Value::String(resource),
                  rel::Value::String(activity)};
  WFRM_RETURN_NOT_OK(db_.GetTable(kQualifications)->Insert(row).status());
  RecordDelta(kQualifications, /*deleted=*/false, row);
  BumpEpoch();
  return pid;
}

Result<int64_t> PolicyStore::AddRequirement(const RequirementPolicy& p) {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  WFRM_ASSIGN_OR_RETURN(std::string resource,
                        org_->resources().Canonical(p.resource));
  WFRM_ASSIGN_OR_RETURN(std::string activity,
                        org_->activities().Canonical(p.activity));
  WFRM_RETURN_NOT_OK(ValidateRangeClause(activity, p.with.get()));
  WFRM_RETURN_NOT_OK(
      ValidateRequirementWhere(resource, activity, p.where.get()));
  std::string where_text = p.where ? p.where->ToString() : "";
  std::unique_lock<std::shared_mutex> lock(mu_);
  Result<int64_t> group =
      InsertDecomposed(kPolicies, kFilter, activity, resource, p.with.get(),
                       {rel::Value::String(std::move(where_text))});
  // Bump even on partial failure: any rows inserted before the error must
  // still invalidate cached derivations.
  BumpEpoch();
  return group;
}

Result<int64_t> PolicyStore::AddSubstitution(const SubstitutionPolicy& p) {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  WFRM_ASSIGN_OR_RETURN(std::string substituted,
                        org_->resources().Canonical(p.substituted_resource));
  WFRM_ASSIGN_OR_RETURN(std::string substituting,
                        org_->resources().Canonical(p.substituting_resource));
  WFRM_ASSIGN_OR_RETURN(std::string activity,
                        org_->activities().Canonical(p.activity));
  WFRM_RETURN_NOT_OK(ValidateRangeClause(activity, p.with.get()));
  WFRM_RETURN_NOT_OK(
      ValidateResourceRangeClause(substituted, p.substituted_where.get()));
  WFRM_RETURN_NOT_OK(
      ValidateResourceRangeClause(substituting, p.substituting_where.get()));
  std::string substituted_where =
      p.substituted_where ? p.substituted_where->ToString() : "";
  std::string substituting_where =
      p.substituting_where ? p.substituting_where->ToString() : "";
  std::unique_lock<std::shared_mutex> lock(mu_);
  Result<int64_t> group = InsertDecomposed(
      kSubstPolicies, kSubstFilter, activity, substituted, p.with.get(),
      {rel::Value::String(std::move(substituted_where)),
       rel::Value::String(substituting),
       rel::Value::String(std::move(substituting_where))});
  BumpEpoch();
  return group;
}

Result<int64_t> PolicyStore::AddPolicy(const ParsedPolicy& policy) {
  if (const auto* q = std::get_if<QualificationPolicy>(&policy)) {
    return AddQualification(*q);
  }
  if (const auto* r = std::get_if<RequirementPolicy>(&policy)) {
    return AddRequirement(*r);
  }
  return AddSubstitution(std::get<SubstitutionPolicy>(policy));
}

Status PolicyStore::AddPolicyText(std::string_view pl_text) {
  WFRM_ASSIGN_OR_RETURN(std::vector<ParsedPolicy> policies,
                        ParsePolicies(pl_text));
  for (const ParsedPolicy& p : policies) {
    WFRM_RETURN_NOT_OK(AddPolicy(p).status());
  }
  return Status::OK();
}

// ---- Cache plumbing -------------------------------------------------------

std::string PolicyStore::RetrievalCacheKey(const char* tag,
                                           const std::string& resource,
                                           const std::string& activity,
                                           const rel::ParamMap& spec) const {
  std::string key;
  AppendCacheKeyPart(&key, tag);
  AppendCacheKeyPart(
      &key, compiled_enabled_.load(std::memory_order_relaxed) ? "c1" : "c0");
  AppendCacheKeyPart(&key, resource);
  AppendCacheKeyPart(&key, activity);
  // ParamMap iteration order is unspecified: sort for a canonical key.
  std::vector<std::string> parts;
  parts.reserve(spec.size());
  for (const auto& [attr, value] : spec) {
    parts.push_back(attr + "=" + value.ToString());
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& p : parts) AppendCacheKeyPart(&key, p);
  return key;
}

void PolicyStore::NoteRewriteLookup(CacheLookup outcome) const {
  switch (outcome) {
    case CacheLookup::kHit:
      ++stats_.rewrite_cache_hits;
      if (metrics_.rewrite_hits != nullptr) metrics_.rewrite_hits->Increment();
      break;
    case CacheLookup::kMiss:
      ++stats_.rewrite_cache_misses;
      if (metrics_.rewrite_misses != nullptr) {
        metrics_.rewrite_misses->Increment();
      }
      break;
    case CacheLookup::kStale:
      ++stats_.rewrite_cache_misses;
      ++stats_.cache_invalidations;
      if (metrics_.rewrite_stale != nullptr) {
        metrics_.rewrite_stale->Increment();
      }
      break;
  }
}

void PolicyStore::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = RetrievalMetrics{};
    return;
  }
  const std::string lookups = "wfrm_store_cache_lookups_total";
  const std::string lookups_help =
      "Enforcement cache probes by cache (retrieval memo tables vs the "
      "rewritten-query LRU) and outcome";
  metrics_.retrievals =
      registry->GetCounter("wfrm_store_retrievals_total", {},
                           "Relevant-policy retrievals entering the store");
  metrics_.hits = registry->GetCounter(
      lookups, {{"cache", "retrieval"}, {"outcome", "hit"}}, lookups_help);
  metrics_.misses = registry->GetCounter(
      lookups, {{"cache", "retrieval"}, {"outcome", "miss"}}, lookups_help);
  metrics_.stale = registry->GetCounter(
      lookups, {{"cache", "retrieval"}, {"outcome", "stale"}}, lookups_help);
  metrics_.rewrite_hits = registry->GetCounter(
      lookups, {{"cache", "rewrite"}, {"outcome", "hit"}}, lookups_help);
  metrics_.rewrite_misses = registry->GetCounter(
      lookups, {{"cache", "rewrite"}, {"outcome", "miss"}}, lookups_help);
  metrics_.rewrite_stale = registry->GetCounter(
      lookups, {{"cache", "rewrite"}, {"outcome", "stale"}}, lookups_help);
  metrics_.compiled_builds = registry->GetCounter(
      "wfrm_policy_compiled_builds_total", {},
      "Compiled policy tables built (lazy, per resource/activity/epoch)");
  metrics_.compiled_probes = registry->GetCounter(
      "wfrm_policy_compiled_probes_total", {},
      "Warm Enforce probes served by a compiled policy table");
}

// ---- Qualification retrieval ------------------------------------------------

Result<std::vector<std::string>> PolicyStore::QualifiedSubtypesLocked(
    const std::string& resource, const std::string& activity) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> act_ancestors,
                        org_->activities().Ancestors(activity));

  // Resource types directly qualified for some super-type of `activity`.
  NameSet qualified;
  const rel::Table* quals = db_.GetTable(kQualifications);
  const rel::OrderedIndex* idx = quals->ordered_indexes()[0].get();
  relations::ScanWork work;
  for (const std::string& a : act_ancestors) {
    rel::IndexProbe probe;
    probe.equals = {rel::Value::String(a)};
    for (rel::RowId rid : idx->Scan(probe)) {
      if (!quals->IsLive(rid)) continue;
      ++work.candidate_rows;
      qualified.insert(quals->row(rid)[1].string_value());
    }
  }
  NoteWork(work);

  // §4.1: keep the sub-types of `resource` one of whose ancestors is
  // directly qualified.
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> subtypes,
                        org_->resources().Descendants(resource));
  std::vector<std::string> out;
  for (const std::string& sub : subtypes) {
    WFRM_ASSIGN_OR_RETURN(std::vector<std::string> chain,
                          org_->resources().Ancestors(sub));
    for (const std::string& anc : chain) {
      if (qualified.count(anc) > 0) {
        out.push_back(sub);
        break;
      }
    }
  }
  return out;
}

Result<std::vector<std::string>> PolicyStore::QualifiedSubtypes(
    const std::string& resource, const std::string& activity) const {
  NoteRetrieval();
  WFRM_RETURN_NOT_OK(EnsureHydratedForActivity(activity));
  const bool use_cache = cache_enabled();
  std::string key;
  uint64_t observed_epoch = 0;
  if (use_cache) {
    key = RetrievalCacheKey("qual", resource, activity, {});
    observed_epoch = epoch();
    CacheLookup outcome;
    if (auto hit = qualified_cache_.Get(key, observed_epoch, &outcome)) {
      NoteRetrievalHit();
      return *hit;
    }
    NoteRetrievalMiss(outcome);
  }
  Result<std::vector<std::string>> result = std::vector<std::string>{};
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    result = QualifiedSubtypesLocked(resource, activity);
  }
  // Only publish results whose inputs were stable across the computation:
  // a concurrent mutation would leave the entry half-old, half-new.
  if (use_cache && result.ok() && epoch() == observed_epoch) {
    qualified_cache_.Put(key, observed_epoch, *result);
  }
  return result;
}

Result<bool> PolicyStore::IsQualified(const std::string& resource,
                                      const std::string& activity) const {
  WFRM_RETURN_NOT_OK(EnsureHydratedForActivity(activity));
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> act_ancestors,
                        org_->activities().Ancestors(activity));
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> res_ancestors,
                        org_->resources().Ancestors(resource));
  NameSet act_set = ToSet(act_ancestors);
  NameSet res_set = ToSet(res_ancestors);
  bool found = false;
  std::shared_lock<std::shared_mutex> lock(mu_);
  db_.GetTable(kQualifications)->ForEach([&](rel::RowId, const rel::Row& row) {
    if (res_set.count(row[1].string_value()) > 0 &&
        act_set.count(row[2].string_value()) > 0) {
      found = true;
    }
  });
  return found;
}

// ---- Requirement retrieval ---------------------------------------------------

Result<std::vector<RelevantRequirement>>
PolicyStore::RelevantRequirementsFilterFirst(const std::string& resource,
                                             const std::string& activity,
                                             const rel::ParamMap& spec) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> act_ancestors,
                        org_->activities().Ancestors(activity));
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> res_ancestors,
                        org_->resources().Ancestors(resource));
  relations::ScanWork work;
  std::vector<relations::CandidateRow> candidates =
      CandidatePolicies(db_, kPolicies, act_ancestors, res_ancestors, &work);
  Result<std::unordered_map<int64_t, int64_t>> counts =
      CountEnclosingIntervals(db_, kFilter, spec, &work);
  NoteWork(work);
  WFRM_RETURN_NOT_OK(counts.status());
  return MergeCandidates(candidates, *counts);
}

Result<std::shared_ptr<const CompiledPolicyTable>>
PolicyStore::BuildCompiledLocked(const std::string& resource,
                                 const std::string& activity) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> act_ancestors,
                        org_->activities().Ancestors(activity));
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> res_ancestors,
                        org_->resources().Ancestors(resource));
  relations::ScanWork work;
  std::vector<relations::CandidateRow> candidates =
      CandidatePolicies(db_, kPolicies, act_ancestors, res_ancestors, &work);
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });

  auto table = std::make_shared<CompiledPolicyTable>();
  table->pids.reserve(candidates.size());
  table->groups.reserve(candidates.size());
  table->num_intervals.reserve(candidates.size());
  table->where_clauses.reserve(candidates.size());

  // Gather each candidate's interval rows into per-attribute partitions
  // (row tuple: lo, hi, lo_incl, hi_incl, entry).
  struct IntervalRow {
    std::string lo, hi;
    uint8_t lo_incl, hi_incl;
    uint32_t entry;
  };
  std::map<std::string, std::vector<IntervalRow>> by_attr;
  const rel::Table* filter = db_.GetTable(kFilter);
  const rel::HashIndex* by_pid = filter->hash_indexes()[0].get();

  for (const relations::CandidateRow& c : candidates) {
    const uint32_t entry = static_cast<uint32_t>(table->pids.size());
    table->pids.push_back(c.pid);
    table->groups.push_back(c.group);
    table->num_intervals.push_back(c.num_intervals);
    table->where_clauses.push_back((*c.row)[5].string_value());
    if (c.num_intervals == 0) continue;
    for (rel::RowId rid : by_pid->Lookup({rel::Value::Int(c.pid)})) {
      if (!filter->IsLive(rid)) continue;
      ++work.interval_rows;
      const rel::Row& row = filter->row(rid);
      by_attr[row[1].string_value()].push_back(
          IntervalRow{row[2].string_value(), row[3].string_value(),
                      static_cast<uint8_t>(row[4].bool_value() ? 1 : 0),
                      static_cast<uint8_t>(row[5].bool_value() ? 1 : 0),
                      entry});
    }
  }
  NoteWork(work);

  table->partitions.reserve(by_attr.size());
  for (auto& [attr, rows] : by_attr) {
    std::sort(rows.begin(), rows.end(),
              [](const IntervalRow& a, const IntervalRow& b) {
                return a.lo < b.lo;
              });
    CompiledPolicyTable::AttrPartition p;
    p.attribute = attr;
    p.lo.reserve(rows.size());
    p.hi.reserve(rows.size());
    p.lo_incl.reserve(rows.size());
    p.hi_incl.reserve(rows.size());
    p.entry.reserve(rows.size());
    for (IntervalRow& r : rows) {
      p.lo.push_back(std::move(r.lo));
      p.hi.push_back(std::move(r.hi));
      p.lo_incl.push_back(r.lo_incl);
      p.hi_incl.push_back(r.hi_incl);
      p.entry.push_back(r.entry);
    }
    table->partitions.push_back(std::move(p));
  }
  // std::map iteration already yields attribute-sorted partitions.
  return std::shared_ptr<const CompiledPolicyTable>(std::move(table));
}

Result<std::vector<RelevantRequirement>>
PolicyStore::RelevantRequirementsCompiled(const std::string& resource,
                                          const std::string& activity,
                                          const rel::ParamMap& spec) const {
  std::string key;
  AppendCacheKeyPart(&key, resource);
  AppendCacheKeyPart(&key, activity);
  const uint64_t observed_epoch = epoch();
  std::shared_ptr<const CompiledPolicyTable> table;
  CacheLookup lookup;  // Build-vs-reuse is tracked by compiled_builds.
  if (auto hit = compiled_cache_.Get(key, observed_epoch, &lookup)) {
    table = std::move(*hit);
  } else {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      WFRM_ASSIGN_OR_RETURN(table, BuildCompiledLocked(resource, activity));
    }
    NoteCompiledBuild();
    // Publish only if no mutation raced the build.
    if (epoch() == observed_epoch) {
      compiled_cache_.Put(key, observed_epoch, table);
    }
  }

  std::vector<std::pair<std::string, std::string>> enc_spec;
  enc_spec.reserve(spec.size());
  for (const auto& [attr, value] : spec) {
    WFRM_ASSIGN_OR_RETURN(std::string enc, EncodeKey(value));
    enc_spec.emplace_back(attr, std::move(enc));
  }
  NoteCompiledProbe();
  return table->Probe(enc_spec);
}

Result<std::vector<RelevantRequirement>> PolicyStore::RelevantRequirements(
    const std::string& resource, const std::string& activity,
    const rel::ParamMap& spec) const {
  NoteRetrieval();
  WFRM_RETURN_NOT_OK(EnsureHydratedForActivity(activity));
  WFRM_ASSIGN_OR_RETURN(std::string res,
                        org_->resources().Canonical(resource));
  WFRM_ASSIGN_OR_RETURN(std::string act,
                        org_->activities().Canonical(activity));
  rel::ParamMap canonical_spec = relations::CanonicalizeSpec(*org_, act, spec);

  const bool use_cache = cache_enabled();
  std::string key;
  uint64_t observed_epoch = 0;
  if (use_cache) {
    key = RetrievalCacheKey("req", res, act, canonical_spec);
    observed_epoch = epoch();
    CacheLookup outcome;
    if (auto hit = requirement_cache_.Get(key, observed_epoch, &outcome)) {
      NoteRetrievalHit();
      return *hit;
    }
    NoteRetrievalMiss(outcome);
  }

  Result<std::vector<RelevantRequirement>> result =
      std::vector<RelevantRequirement>{};
  if (compiled_enabled()) {
    // Locks internally: shared while building; probes are lock-free.
    result = RelevantRequirementsCompiled(res, act, canonical_spec);
  } else {
    std::shared_lock<std::shared_mutex> lock(mu_);
    result = RelevantRequirementsFilterFirst(res, act, canonical_spec);
  }
  if (use_cache && result.ok() && epoch() == observed_epoch) {
    requirement_cache_.Put(key, observed_epoch, *result);
  }
  return result;
}

// ---- Substitution retrieval --------------------------------------------------

Result<std::vector<RelevantSubstitution>>
PolicyStore::RelevantSubstitutionsLocked(const std::string& res,
                                         const rel::Expr* query_where,
                                         const std::string& act,
                                         const rel::ParamMap& spec) const {
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> act_ancestors,
                        org_->activities().Ancestors(act));
  // §4.3 condition 1: the substituted resource shares a sub-type with
  // the query's resource. In a tree hierarchy that holds exactly when
  // one is an ancestor of the other (the query resource implies all its
  // sub-types, footnote 1).
  WFRM_ASSIGN_OR_RETURN(std::vector<std::string> res_related,
                        org_->resources().Ancestors(res));
  {
    WFRM_ASSIGN_OR_RETURN(std::vector<std::string> desc,
                          org_->resources().Descendants(res));
    // Descendants() includes `res` which Ancestors() already lists.
    for (std::string& d : desc) {
      if (!EqualsIgnoreCase(d, res)) res_related.push_back(std::move(d));
    }
  }

  relations::ScanWork work;
  std::vector<relations::CandidateRow> candidates = CandidatePolicies(
      db_, kSubstPolicies, act_ancestors, res_related, &work);
  Result<std::unordered_map<int64_t, int64_t>> counts =
      CountEnclosingIntervals(db_, kSubstFilter, spec, &work);
  NoteWork(work);
  WFRM_RETURN_NOT_OK(counts.status());

  // §4.3 condition 2: the resource ranges intersect. The query side is
  // a disjunct list too, so `Where Age != 30` (which normalizes to
  // `< 30 Or > 30`) is not silently widened into matching a policy
  // range of exactly [30, 30].
  std::vector<ConjunctiveRange> query_ranges =
      QueryRangesForIntersection(query_where);

  std::vector<RelevantSubstitution> out;
  for (const relations::CandidateRow& c : candidates) {
    auto it = counts->find(c.pid);
    int64_t enclosed = it == counts->end() ? 0 : it->second;
    if (!(c.num_intervals == 0 || enclosed == c.num_intervals)) continue;

    const rel::Row& row = *c.row;
    const std::string& substituted_where = row[5].string_value();
    WFRM_ASSIGN_OR_RETURN(bool meets,
                          RangeClauseMeets(substituted_where, query_ranges));
    if (!meets) continue;
    out.push_back(RelevantSubstitution{
        c.pid, c.group, row[3].string_value(), substituted_where,
        row[6].string_value(), row[7].string_value()});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });
  return out;
}

Result<std::vector<RelevantSubstitution>> PolicyStore::RelevantSubstitutions(
    const std::string& resource, const rel::Expr* query_where,
    const std::string& activity, const rel::ParamMap& spec) const {
  NoteRetrieval();
  WFRM_RETURN_NOT_OK(EnsureHydratedForActivity(activity));
  WFRM_ASSIGN_OR_RETURN(std::string res,
                        org_->resources().Canonical(resource));
  WFRM_ASSIGN_OR_RETURN(std::string act,
                        org_->activities().Canonical(activity));
  rel::ParamMap canonical_spec = relations::CanonicalizeSpec(*org_, act, spec);

  const bool use_cache = cache_enabled();
  std::string key;
  uint64_t observed_epoch = 0;
  if (use_cache) {
    key = RetrievalCacheKey("subst", res, act, canonical_spec);
    AppendCacheKeyPart(&key, query_where ? query_where->ToString() : "");
    observed_epoch = epoch();
    CacheLookup outcome;
    if (auto hit = substitution_cache_.Get(key, observed_epoch, &outcome)) {
      NoteRetrievalHit();
      return *hit;
    }
    NoteRetrievalMiss(outcome);
  }

  Result<std::vector<RelevantSubstitution>> result =
      std::vector<RelevantSubstitution>{};
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    result = RelevantSubstitutionsLocked(res, query_where, act,
                                         canonical_spec);
  }
  if (use_cache && result.ok() && epoch() == observed_epoch) {
    substitution_cache_.Put(key, observed_epoch, *result);
  }
  return result;
}

Result<std::vector<PolicyStore::RequirementDiagnosis>>
PolicyStore::DiagnoseRequirements(const std::string& resource,
                                  const std::string& activity,
                                  const rel::ParamMap& spec) const {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  WFRM_ASSIGN_OR_RETURN(std::string res, org_->resources().Canonical(resource));
  WFRM_ASSIGN_OR_RETURN(std::string act,
                        org_->activities().Canonical(activity));
  rel::ParamMap bindings = relations::CanonicalizeSpec(*org_, act, spec);
  std::shared_lock<std::shared_mutex> lock(mu_);
  WFRM_ASSIGN_OR_RETURN(auto groups,
                        ListGroupsLocked(kPolicies, kFilter, false));

  std::vector<RequirementDiagnosis> out;
  out.reserve(groups.size());
  for (const auto& g : groups) {
    RequirementDiagnosis d;
    d.group = g.group;
    d.resource = g.resource;
    d.activity = g.activity;
    d.where_clause = g.where_clause;

    WFRM_ASSIGN_OR_RETURN(bool res_ok,
                          org_->resources().IsSubtypeOf(res, g.resource));
    if (!res_ok) {
      d.verdict = RequirementDiagnosis::Verdict::kResourceMismatch;
      d.detail = "'" + res + "' is not a sub-type of '" + g.resource + "'";
      out.push_back(std::move(d));
      continue;
    }
    WFRM_ASSIGN_OR_RETURN(bool act_ok,
                          org_->activities().IsSubtypeOf(act, g.activity));
    if (!act_ok) {
      d.verdict = RequirementDiagnosis::Verdict::kActivityMismatch;
      d.detail = "'" + act + "' is not a sub-type of '" + g.activity + "'";
      out.push_back(std::move(d));
      continue;
    }

    WFRM_ASSIGN_OR_RETURN(bool inside,
                          AnyRangeContains(g.range_data, bindings));
    if (!inside) {
      d.verdict = RequirementDiagnosis::Verdict::kRangeMismatch;
      // Point at the first failing attribute of the first disjunct.
      std::string why;
      if (!g.range_data.empty()) {
        for (const auto& [attr, interval] : g.range_data[0]) {
          auto it = bindings.find(attr);
          if (it == bindings.end()) {
            why = attr + " is unbound but constrained to " +
                  interval.ToString();
            break;
          }
          auto contains = interval.Contains(it->second);
          if (contains.ok() && !*contains) {
            why = attr + " = " + it->second.ToString() + " outside " +
                  interval.ToString();
            break;
          }
        }
      }
      d.detail = why.empty() ? "specification outside the activity range"
                             : why;
      out.push_back(std::move(d));
      continue;
    }
    d.verdict = RequirementDiagnosis::Verdict::kApplied;
    d.detail = "all §4.2 conditions hold";
    out.push_back(std::move(d));
  }
  return out;
}

Result<std::vector<PolicyStore::SubstitutionDiagnosis>>
PolicyStore::DiagnoseSubstitutions(const std::string& resource,
                                   const rel::Expr* query_where,
                                   const std::string& activity,
                                   const rel::ParamMap& spec) const {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  WFRM_ASSIGN_OR_RETURN(std::string res, org_->resources().Canonical(resource));
  WFRM_ASSIGN_OR_RETURN(std::string act,
                        org_->activities().Canonical(activity));
  rel::ParamMap bindings = relations::CanonicalizeSpec(*org_, act, spec);
  std::vector<ConjunctiveRange> query_ranges =
      QueryRangesForIntersection(query_where);
  std::shared_lock<std::shared_mutex> lock(mu_);
  WFRM_ASSIGN_OR_RETURN(auto groups,
                        ListGroupsLocked(kSubstPolicies, kSubstFilter, true));

  std::vector<SubstitutionDiagnosis> out;
  out.reserve(groups.size());
  for (const auto& g : groups) {
    SubstitutionDiagnosis d;
    d.group = g.group;
    d.substituted_resource = g.resource;
    d.substituting_resource = g.substituting_resource;
    d.activity = g.activity;

    // §4.3 condition 1: common sub-type — in a tree, one must be the
    // other's (in)direct super-type (footnote 1: the query type implies
    // its sub-types).
    WFRM_ASSIGN_OR_RETURN(bool sub_ab,
                          org_->resources().IsSubtypeOf(res, g.resource));
    WFRM_ASSIGN_OR_RETURN(bool sub_ba,
                          org_->resources().IsSubtypeOf(g.resource, res));
    if (!sub_ab && !sub_ba) {
      d.verdict = SubstitutionDiagnosis::Verdict::kResourceUnrelated;
      d.detail = "'" + res + "' and substituted '" + g.resource +
                 "' share no sub-type";
      out.push_back(std::move(d));
      continue;
    }
    // Condition 3: policy activity is a super-type of the query's.
    WFRM_ASSIGN_OR_RETURN(bool act_ok,
                          org_->activities().IsSubtypeOf(act, g.activity));
    if (!act_ok) {
      d.verdict = SubstitutionDiagnosis::Verdict::kActivityMismatch;
      d.detail = "'" + act + "' is not a sub-type of '" + g.activity + "'";
      out.push_back(std::move(d));
      continue;
    }
    // Condition 4: specification inside the activity range.
    WFRM_ASSIGN_OR_RETURN(bool inside,
                          AnyRangeContains(g.range_data, bindings));
    if (!inside) {
      d.verdict = SubstitutionDiagnosis::Verdict::kRangeMismatch;
      d.detail = "specification outside the policy's activity range";
      out.push_back(std::move(d));
      continue;
    }
    // Condition 2: resource ranges intersect.
    WFRM_ASSIGN_OR_RETURN(bool intersects,
                          RangeClauseMeets(g.where_clause, query_ranges));
    if (!intersects) {
      d.verdict = SubstitutionDiagnosis::Verdict::kResourceRangeDisjoint;
      d.detail =
          "query range " +
          (query_ranges.empty() ? std::string("(unsatisfiable)")
                                : RangeToString(query_ranges.front())) +
          " never meets substituted range '" + g.where_clause + "'";
      out.push_back(std::move(d));
      continue;
    }
    d.verdict = SubstitutionDiagnosis::Verdict::kApplied;
    d.detail = "all §4.3 conditions hold";
    out.push_back(std::move(d));
  }
  return out;
}

// ---- Introspection ----------------------------------------------------------

namespace {

/// Rebuilds the interval map of one policy row from its Filter rows.
Result<ConjunctiveRange> DecodeIntervalRows(
    const std::vector<const rel::Row*>& rows) {
  ConjunctiveRange range;
  for (const rel::Row* row : rows) {
    Interval iv;
    const std::string& lo = (*row)[2].string_value();
    const std::string& up = (*row)[3].string_value();
    if (lo != EncodedDomainMin()) {
      WFRM_ASSIGN_OR_RETURN(rel::Value v, DecodeKey(lo));
      iv.lower = std::move(v);
      iv.lower_inclusive = (*row)[4].bool_value();
    }
    if (up != EncodedDomainMax()) {
      WFRM_ASSIGN_OR_RETURN(rel::Value v, DecodeKey(up));
      iv.upper = std::move(v);
      iv.upper_inclusive = (*row)[5].bool_value();
    }
    range.emplace((*row)[1].string_value(), std::move(iv));
  }
  return range;
}

}  // namespace

std::vector<PolicyStore::StoredQualification>
PolicyStore::ListQualifications() const {
  // Best effort: the signature cannot report a hydration I/O failure, so
  // a failed load falls back to the (empty) in-memory view.
  (void)EnsureHydrated();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<StoredQualification> out;
  db_.GetTable(kQualifications)->ForEach([&](rel::RowId, const rel::Row& row) {
    out.push_back(StoredQualification{
        row[0].int_value(),
        QualificationPolicy{row[1].string_value(), row[2].string_value()}});
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });
  return out;
}

Result<std::vector<PolicyStore::StoredPolicyGroup>>
PolicyStore::ListGroupsLocked(const std::string& policy_table,
                              const std::string& filter_table,
                              bool substitution) const {
  const rel::Table* policies = db_.GetTable(policy_table);
  const rel::Table* filter = db_.GetTable(filter_table);

  std::unordered_map<int64_t, std::vector<const rel::Row*>> intervals_by_pid;
  filter->ForEach([&](rel::RowId, const rel::Row& row) {
    intervals_by_pid[row[0].int_value()].push_back(&row);
  });

  std::map<int64_t, StoredPolicyGroup> groups;
  Status st = Status::OK();
  policies->ForEach([&](rel::RowId, const rel::Row& row) {
    if (!st.ok()) return;
    int64_t group = row[1].int_value();
    StoredPolicyGroup& g = groups[group];
    g.group = group;
    g.pids.push_back(row[0].int_value());
    g.activity = row[2].string_value();
    g.resource = row[3].string_value();
    g.where_clause = row[5].string_value();
    if (substitution) {
      g.substituting_resource = row[6].string_value();
      g.substituting_where = row[7].string_value();
    }
    auto decoded = DecodeIntervalRows(intervals_by_pid[row[0].int_value()]);
    if (!decoded.ok()) {
      st = decoded.status();
      return;
    }
    g.ranges.push_back(RangeToString(*decoded));
    g.range_data.push_back(std::move(decoded).ValueOrDie());
  });
  WFRM_RETURN_NOT_OK(st);

  std::vector<StoredPolicyGroup> out;
  out.reserve(groups.size());
  for (auto& [group, g] : groups) out.push_back(std::move(g));
  return out;
}

Result<std::vector<PolicyStore::StoredPolicyGroup>>
PolicyStore::ListRequirements() const {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ListGroupsLocked(kPolicies, kFilter, false);
}

Result<std::vector<PolicyStore::StoredPolicyGroup>>
PolicyStore::ListSubstitutions() const {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ListGroupsLocked(kSubstPolicies, kSubstFilter, true);
}

// ---- Persistence ------------------------------------------------------------

namespace {

std::vector<rel::Row> CopyRows(const rel::Table* table) {
  std::vector<rel::Row> rows;
  rows.reserve(table->num_rows());
  table->ForEach([&](rel::RowId, const rel::Row& row) { rows.push_back(row); });
  return rows;
}

}  // namespace

PolicyStore::Image PolicyStore::ExportImage() const {
  // Best effort: a failed hydration exports whatever is resident.
  // Callers that must see the full base (checkpoint capture) call
  // EnsureHydrated() themselves first and propagate its status.
  (void)EnsureHydrated();
  std::shared_lock<std::shared_mutex> lock(mu_);
  Image image;
  image.qualifications = CopyRows(db_.GetTable(kQualifications));
  image.policies = CopyRows(db_.GetTable(kPolicies));
  image.filter = CopyRows(db_.GetTable(kFilter));
  image.subst_policies = CopyRows(db_.GetTable(kSubstPolicies));
  image.subst_filter = CopyRows(db_.GetTable(kSubstFilter));
  image.next_pid = next_pid_;
  image.next_group = next_group_;
  image.epoch = epoch_.load(std::memory_order_acquire);
  return image;
}

Status PolicyStore::ImportImage(const Image& image) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  WFRM_RETURN_NOT_OK(ImportImageLocked(image));
  // The base was replaced wholesale: per-row deltas no longer describe
  // the durable-to-memory difference, and the in-memory tables are now
  // authoritative regardless of any lazy source.
  if (delta_tracking_) {
    deltas_overflowed_ = true;
    pending_deltas_.clear();
  }
  hydrated_.store(true, std::memory_order_release);
  return Status::OK();
}

Status PolicyStore::ImportImageLocked(const Image& image) {
  WFRM_RETURN_NOT_OK(relations::LoadRows(image, &db_));
  next_pid_ = image.next_pid;
  next_group_ = image.next_group;
  epoch_.store(image.epoch, std::memory_order_release);
  qualified_cache_.Clear();
  requirement_cache_.Clear();
  substitution_cache_.Clear();
  compiled_cache_.Clear();
  return Status::OK();
}

Status PolicyStore::RemoveQualification(int64_t pid) {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  std::unique_lock<std::shared_mutex> lock(mu_);
  rel::Table* quals = db_.GetTable(kQualifications);
  std::vector<rel::RowId> to_delete;
  std::vector<rel::Row> removed;
  quals->ForEach([&](rel::RowId rid, const rel::Row& row) {
    if (row[0].int_value() == pid) {
      to_delete.push_back(rid);
      removed.push_back(row);
    }
  });
  if (to_delete.empty()) {
    return Status::NotFound("no qualification policy with PID " +
                            std::to_string(pid));
  }
  for (rel::RowId rid : to_delete) WFRM_RETURN_NOT_OK(quals->Delete(rid));
  for (const rel::Row& row : removed) {
    RecordDelta(kQualifications, /*deleted=*/true, row);
  }
  BumpEpoch();
  return Status::OK();
}

Status PolicyStore::RemoveGroup(const char* policy_table,
                                const char* filter_table, int64_t group) {
  WFRM_RETURN_NOT_OK(EnsureHydrated());
  std::unique_lock<std::shared_mutex> lock(mu_);
  rel::Table* policies = db_.GetTable(policy_table);
  rel::Table* filter = db_.GetTable(filter_table);
  std::vector<rel::RowId> policy_rids, filter_rids;
  std::vector<rel::Row> removed_policies, removed_filter;
  std::unordered_set<int64_t> pids;
  policies->ForEach([&](rel::RowId rid, const rel::Row& row) {
    if (row[1].int_value() == group) {
      policy_rids.push_back(rid);
      removed_policies.push_back(row);
      pids.insert(row[0].int_value());
    }
  });
  if (policy_rids.empty()) {
    return Status::NotFound("no policy group " + std::to_string(group));
  }
  filter->ForEach([&](rel::RowId rid, const rel::Row& row) {
    if (pids.count(row[0].int_value()) > 0) {
      filter_rids.push_back(rid);
      removed_filter.push_back(row);
    }
  });
  for (rel::RowId rid : policy_rids) WFRM_RETURN_NOT_OK(policies->Delete(rid));
  for (rel::RowId rid : filter_rids) WFRM_RETURN_NOT_OK(filter->Delete(rid));
  for (const rel::Row& row : removed_policies) {
    RecordDelta(policy_table, /*deleted=*/true, row);
  }
  for (const rel::Row& row : removed_filter) {
    RecordDelta(filter_table, /*deleted=*/true, row);
  }
  BumpEpoch();
  return Status::OK();
}

Status PolicyStore::RemoveRequirementGroup(int64_t group) {
  return RemoveGroup(kPolicies, kFilter, group);
}

Status PolicyStore::RemoveSubstitutionGroup(int64_t group) {
  return RemoveGroup(kSubstPolicies, kSubstFilter, group);
}

size_t PolicyStore::RowCount(const char* table) const {
  (void)EnsureHydrated();
  std::shared_lock<std::shared_mutex> lock(mu_);
  return db_.GetTable(table)->num_rows();
}

// ---- Lazy hydration and delta tracking ------------------------------------

void PolicyStore::AttachLazySource(std::shared_ptr<PolicyImageSource> source,
                                   int64_t next_pid, int64_t next_group,
                                   uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  source_ = std::move(source);
  next_pid_ = next_pid;
  next_group_ = next_group;
  epoch_.store(epoch, std::memory_order_release);
  hydrated_.store(source_ == nullptr, std::memory_order_release);
}

Status PolicyStore::EnsureHydrated() const {
  if (hydrated_.load(std::memory_order_acquire)) return Status::OK();
  // Hydration mutates the tables, but is semantically a const read of
  // the durable policy base into cache.
  return const_cast<PolicyStore*>(this)->HydrateNow();
}

Status PolicyStore::EnsureHydratedForActivity(
    const std::string& activity) const {
  if (hydrated_.load(std::memory_order_acquire)) return Status::OK();
  std::shared_ptr<PolicyImageSource> source;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (hydrated_.load(std::memory_order_acquire)) return Status::OK();
    source = source_;
  }
  if (source == nullptr) return Status::OK();
  stats_.bloom_probes.fetch_add(1, std::memory_order_relaxed);
  // A policy on any ancestor activity can apply to `activity`
  // (retrieval walks the activity hierarchy), so skipping hydration is
  // only safe when the whole ancestor chain is bloom-negative. An
  // activity the org model does not know yields an empty ancestor set;
  // retrieval will fail on canonicalization either way, so answering
  // from the empty resident tables is fine.
  std::vector<std::string> chain;
  if (Result<std::vector<std::string>> anc =
          org_->activities().Ancestors(activity);
      anc.ok()) {
    chain = *std::move(anc);
  }
  if (chain.empty()) chain.push_back(activity);
  for (const std::string& act : chain) {
    if (source->MayHaveActivity(act)) {
      return const_cast<PolicyStore*>(this)->HydrateNow();
    }
  }
  stats_.bloom_skips.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PolicyStore::HydrateNow() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (hydrated_.load(std::memory_order_acquire)) return Status::OK();
  WFRM_ASSIGN_OR_RETURN(Image image, source_->LoadImage());
  // Counters and epoch were already seeded by AttachLazySource and may
  // have advanced past the stored image (WAL-tail replay); keep the
  // live values, not the image's.
  image.next_pid = next_pid_;
  image.next_group = next_group_;
  image.epoch = epoch_.load(std::memory_order_acquire);
  WFRM_RETURN_NOT_OK(ImportImageLocked(image));
  hydrated_.store(true, std::memory_order_release);
  return Status::OK();
}

void PolicyStore::set_delta_tracking(bool enabled) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  delta_tracking_ = enabled;
  if (!enabled) {
    pending_deltas_.clear();
    deltas_overflowed_ = false;
  }
}

PendingPolicyDeltas PolicyStore::TakePendingDeltas() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  PendingPolicyDeltas out;
  out.deltas = std::move(pending_deltas_);
  out.overflowed = deltas_overflowed_;
  pending_deltas_.clear();
  deltas_overflowed_ = false;
  return out;
}

int64_t PolicyStore::next_pid() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_pid_;
}

int64_t PolicyStore::next_group() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_group_;
}

void PolicyStore::RecordDelta(std::string_view table, bool deleted,
                              const rel::Row& row) {
  if (!delta_tracking_ || deltas_overflowed_) return;
  // Bound the buffer: a checkpoint that never drains (or a bulk load)
  // degrades to a full image rewrite instead of unbounded memory.
  constexpr size_t kMaxPendingDeltas = size_t{1} << 20;
  if (pending_deltas_.size() >= kMaxPendingDeltas) {
    deltas_overflowed_ = true;
    pending_deltas_.clear();
    return;
  }
  // The relations in PolicyRelation order.
  constexpr std::string_view kRelations[] = {
      kQualifications, kPolicies, kFilter, kSubstPolicies, kSubstFilter};
  const auto relation = static_cast<PolicyRelation>(
      std::find(std::begin(kRelations), std::end(kRelations), table) -
      std::begin(kRelations));
  pending_deltas_.push_back(PolicyRowDelta{relation, deleted, row});
}

}  // namespace wfrm::policy
