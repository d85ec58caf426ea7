#include "policy/paper_retrieval.h"

#include <algorithm>
#include <mutex>

#include "policy/key_encoding.h"
#include "rel/executor.h"
#include "rel/parser.h"

namespace wfrm::policy {

namespace {

using relations::CandidateRow;
using relations::kFilter;
using relations::kPolicies;
using relations::ScanWork;

/// Case-insensitive name set for hierarchy membership tests.
using NameSet = std::unordered_set<std::string, CaseInsensitiveHash,
                                   CaseInsensitiveEq>;

/// Rounds a list size up to the next power of two (minimum 1): kSql
/// buckets query shapes by these so a handful of parameterized view
/// definitions — padded by repeating the last element, which is
/// idempotent under In-list/Or set semantics — serve every query.
size_t ShapeBucket(size_t n) {
  size_t b = 1;
  while (b < n) b <<= 1;
  return b;
}

}  // namespace

PaperRetrieval::PaperRetrieval(const PolicyStore& live,
                               PaperRetrievalOptions options)
    : live_(live), options_(options) {
  relations::CreatePolicyRelations(&db_);
  // A failed load leaves loaded_epoch_ unset; the first call retries it.
  (void)Refresh();
}

Status PaperRetrieval::Refresh() const {
  const uint64_t epoch = live_.epoch();
  if (loaded_epoch_.load(std::memory_order_acquire) == epoch) {
    return Status::OK();
  }
  // Read the epoch before the rows: a mutation in between leaves newer
  // rows tagged with an older epoch, which the next call reloads.
  const PolicyImage image = live_.ExportImage();
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (loaded_epoch_.load(std::memory_order_relaxed) == epoch) {
    return Status::OK();
  }
  WFRM_RETURN_NOT_OK(relations::LoadRows(image, &db_));
  std::unordered_set<std::string> attributes;
  for (const rel::Row& row : image.filter) {
    attributes.insert(row[1].string_value());
  }
  filter_attributes_ = attributes.size();
  loaded_epoch_.store(epoch, std::memory_order_release);
  return Status::OK();
}

Result<PaperRetrieval::Query> PaperRetrieval::Canonicalize(
    const std::string& resource, const std::string& activity,
    const rel::ParamMap& spec) const {
  const org::OrgModel& org = live_.org();
  WFRM_ASSIGN_OR_RETURN(std::string res, org.resources().Canonical(resource));
  WFRM_ASSIGN_OR_RETURN(std::string act,
                        org.activities().Canonical(activity));
  Query q;
  q.spec = relations::CanonicalizeSpec(org, act, spec);
  WFRM_ASSIGN_OR_RETURN(q.activities, org.activities().Ancestors(act));
  WFRM_ASSIGN_OR_RETURN(q.resources, org.resources().Ancestors(res));
  return q;
}

Result<std::vector<RelevantRequirement>> PaperRetrieval::RelevantRequirements(
    const std::string& resource, const std::string& activity,
    const rel::ParamMap& spec) const {
  WFRM_ASSIGN_OR_RETURN(Query q, Canonicalize(resource, activity, spec));
  WFRM_RETURN_NOT_OK(Refresh());
  if (options_.strategy == Strategy::kSql) return RunSql(q);

  std::shared_lock<std::shared_mutex> lock(mu_);
  const bool policies_first =
      options_.strategy == Strategy::kPoliciesFirst ||
      (options_.strategy == Strategy::kAdaptive &&
       PreferPoliciesFirstLocked(q.spec.size()));
  ++(policies_first ? plans_policies_first_ : plans_filter_first_);
  ScanWork work;
  std::vector<CandidateRow> candidates =
      Candidates(q.activities, q.resources, &work);
  Result<std::unordered_map<int64_t, int64_t>> enclosing =
      policies_first ? EnclosingPerCandidate(candidates, q.spec, &work)
                     : EnclosingIntervals(q.spec, &work);
  candidate_rows_ += work.candidate_rows;
  interval_rows_ += work.interval_rows;
  WFRM_RETURN_NOT_OK(enclosing.status());
  return relations::MergeCandidates(candidates, *enclosing);
}

std::vector<CandidateRow> PaperRetrieval::Candidates(
    const std::vector<std::string>& activities,
    const std::vector<std::string>& resources, ScanWork* work) const {
  if (options_.use_indexes) {
    return relations::CandidatePolicies(db_, kPolicies, activities,
                                        resources, work);
  }
  const NameSet act_set(activities.begin(), activities.end());
  const NameSet res_set(resources.begin(), resources.end());
  std::vector<CandidateRow> out;
  db_.GetTable(kPolicies)->ForEach([&](rel::RowId, const rel::Row& row) {
    ++work->candidate_rows;
    if (act_set.count(row[2].string_value()) > 0 &&
        res_set.count(row[3].string_value()) > 0) {
      out.push_back(CandidateRow{row[0].int_value(), row[1].int_value(),
                                 row[4].int_value(), &row});
    }
  });
  return out;
}

Result<std::unordered_map<int64_t, int64_t>>
PaperRetrieval::EnclosingIntervals(const rel::ParamMap& spec,
                                   ScanWork* work) const {
  if (options_.use_indexes) {
    return relations::CountEnclosingIntervals(db_, kFilter, spec, work);
  }
  const rel::Table* filter = db_.GetTable(kFilter);
  std::unordered_map<int64_t, int64_t> counts;
  for (const auto& [attr, value] : spec) {
    WFRM_ASSIGN_OR_RETURN(std::string enc, EncodeKey(value));
    filter->ForEach([&](rel::RowId, const rel::Row& row) {
      ++work->interval_rows;
      if (row[1].string_value() == attr && relations::Encloses(row, enc)) {
        counts[row[0].int_value()]++;
      }
    });
  }
  return counts;
}

/// O(candidates · i) lookups by PID instead of per-attribute range scans.
Result<std::unordered_map<int64_t, int64_t>>
PaperRetrieval::EnclosingPerCandidate(
    const std::vector<CandidateRow>& candidates, const rel::ParamMap& spec,
    ScanWork* work) const {
  std::unordered_map<std::string, std::string> encoded;
  for (const auto& [attr, value] : spec) {
    WFRM_ASSIGN_OR_RETURN(std::string enc, EncodeKey(value));
    encoded.emplace(attr, std::move(enc));
  }
  const rel::Table* filter = db_.GetTable(kFilter);
  const rel::HashIndex* by_pid = filter->hash_indexes()[0].get();
  std::unordered_map<int64_t, int64_t> counts;
  for (const CandidateRow& c : candidates) {
    auto check = [&](const rel::Row& row) {
      ++work->interval_rows;
      auto it = encoded.find(row[1].string_value());
      if (it != encoded.end() && relations::Encloses(row, it->second)) {
        counts[c.pid]++;
      }
    };
    if (c.num_intervals > 0 && options_.use_indexes) {
      for (rel::RowId rid : by_pid->Lookup({rel::Value::Int(c.pid)})) {
        if (filter->IsLive(rid)) check(filter->row(rid));
      }
    } else if (c.num_intervals > 0) {
      filter->ForEach([&](rel::RowId, const rel::Row& row) {
        if (row[0].int_value() == c.pid) check(row);
      });
    }
  }
  return counts;
}

SelectivityParams PaperRetrieval::EstimateParamsLocked() const {
  SelectivityParams p;
  p.num_activities = std::max<size_t>(2, live_.org().activities().size());
  p.num_resources = std::max<size_t>(2, live_.org().resources().size());
  const rel::Table* policies = db_.GetTable(kPolicies);
  double n = static_cast<double>(policies->num_rows());
  // Distinct (Activity, Resource) pairs straight off the concatenated
  // index.
  double pairs = static_cast<double>(
      std::max<size_t>(1, policies->ordered_indexes()[0]->num_keys()));
  p.c = std::max(1.0, n / pairs);
  p.q = std::max(1.0, pairs / static_cast<double>(p.num_resources));
  p.intervals_per_range =
      n == 0 ? 1.0
             : static_cast<double>(db_.GetTable(kFilter)->num_rows()) / n;
  return p;
}

SelectivityParams PaperRetrieval::EstimateParams() const {
  (void)Refresh();
  std::shared_lock<std::shared_mutex> lock(mu_);
  return EstimateParamsLocked();
}

bool PaperRetrieval::PreferPoliciesFirstLocked(
    size_t num_spec_attributes) const {
  SelectivityParams p = EstimateParamsLocked();
  double n = static_cast<double>(db_.GetTable(kPolicies)->num_rows());
  double f = static_cast<double>(db_.GetTable(kFilter)->num_rows());
  // Policies-first verifies each expected Figure 13 candidate against
  // its i interval rows (lookups by PID).
  double cost_policies_first =
      SelectivityPolicies(p) * n * std::max(1.0, p.intervals_per_range);
  // Filter-first issues one (Attribute, LowerBound <= x) range probe per
  // bound attribute; each visits about half of that attribute's
  // partition of Filter, matched or not.
  double attrs = static_cast<double>(std::max<size_t>(1, filter_attributes_));
  double cost_filter_first =
      static_cast<double>(std::max<size_t>(1, num_spec_attributes)) * f /
      (2.0 * attrs);
  return cost_policies_first < cost_filter_first;
}

bool PaperRetrieval::PreferPoliciesFirst(size_t num_spec_attributes) const {
  (void)Refresh();
  std::shared_lock<std::shared_mutex> lock(mu_);
  return PreferPoliciesFirstLocked(num_spec_attributes);
}

Result<PaperRetrieval::ViewSelectivity> PaperRetrieval::MeasureViewSelectivity(
    const std::string& resource, const std::string& activity,
    const rel::ParamMap& spec) const {
  WFRM_ASSIGN_OR_RETURN(Query q, Canonicalize(resource, activity, spec));
  WFRM_RETURN_NOT_OK(Refresh());
  std::shared_lock<std::shared_mutex> lock(mu_);
  // The rows each view's predicate matches are exactly what its index
  // probe returns (a measurement, so the work is not counted).
  ScanWork work;
  const size_t policies_matched =
      relations::CandidatePolicies(db_, kPolicies, q.activities, q.resources,
                                   &work)
          .size();
  WFRM_ASSIGN_OR_RETURN(
      auto enclosing,
      relations::CountEnclosingIntervals(db_, kFilter, q.spec, &work));
  size_t filter_matched = 0;
  for (const auto& [pid, n] : enclosing) filter_matched += n;
  auto rate = [](size_t matched, size_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(matched) /
                            static_cast<double>(total);
  };
  return ViewSelectivity{
      rate(policies_matched, db_.GetTable(kPolicies)->num_rows()),
      rate(filter_matched, db_.GetTable(kFilter)->num_rows())};
}

Result<std::string> PaperRetrieval::EnsureSqlShape(size_t ba, size_t br,
                                                   size_t bk) const {
  const std::string rp = "Relevant_Policies_" + std::to_string(ba) + "x" +
                         std::to_string(br);
  const std::string rf = "Relevant_Filter_" + std::to_string(bk);
  // Figure 15: the union retrieving the additional selection criteria,
  // against this shape's views.
  std::string fig15 = "Select " + rp + ".PID, " + rp + ".GroupID, " + rp +
                      ".WhereClause From " + rp + ", " + rf + " Where " + rp +
                      ".PID = " + rf + ".PID And " + rp +
                      ".NumberOfIntervals = " + rf + ".NumberOfIntervals "
                      "Union Select PID, GroupID, WhereClause From " + rp +
                      " Where " + rp + ".NumberOfIntervals = 0";
  const std::string shape_key = rp + "|" + rf;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (sql_shapes_.count(shape_key) > 0) return fig15;
  }

  // Figure 13: view on Policies. Ancestor() expands to an In-list (the
  // paper: "the inclusion check can be implemented as a group of
  // disjunctively related equality comparisons"). GroupID is carried
  // along so enforcement can apply each source policy once. The In-lists
  // hold `ba`/`br` parameters instead of literals, so the view is
  // registered once per shape and every query binds fresh values.
  auto param_list = [](const char* prefix, size_t n) {
    std::string out = "(";
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += ", ";
      out += '[';
      out += prefix;
      out += std::to_string(i);
      out += ']';
    }
    return out + ")";
  };
  std::string fig13 =
      "Select PID, GroupID, NumberOfIntervals, WhereClause From Policies "
      "Where Activity In " +
      param_list("qa", ba) + " And Resource In " + param_list("qr", br);

  // Figure 14: view on Filter, counting enclosing intervals per PID. One
  // parameterized disjunct per spec-attribute slot ([fa j] names the
  // attribute, [fv j] the encoded value).
  std::string fig14 = "Select PID, Count(*) From Filter Where ";
  if (bk == 0) {
    fig14 += "1 = 0";  // No bound attribute can match any interval.
  } else {
    for (size_t j = 0; j < bk; ++j) {
      const std::string a = "[fa" + std::to_string(j) + "]";
      const std::string e = "[fv" + std::to_string(j) + "]";
      if (j > 0) fig14 += " Or ";
      fig14 += "(Attribute = " + a + " And (LowerBound < " + e +
               " Or (LowerInclusive = TRUE And LowerBound = " + e +
               ")) And (" + e + " < UpperBound Or (UpperInclusive = TRUE "
               "And UpperBound = " + e + ")))";
    }
  }
  fig14 += " Group by PID";

  WFRM_ASSIGN_OR_RETURN(rel::SelectPtr fig13_stmt,
                        rel::SqlParser::ParseSelect(fig13));
  WFRM_ASSIGN_OR_RETURN(rel::SelectPtr fig14_stmt,
                        rel::SqlParser::ParseSelect(fig14));

  std::unique_lock<std::shared_mutex> lock(mu_);
  if (sql_shapes_.count(shape_key) > 0) return fig15;  // Lost the race.
  db_.CreateOrReplaceView(
      rp, {"PID", "GroupID", "NumberOfIntervals", "WhereClause"},
      std::move(fig13_stmt));
  db_.CreateOrReplaceView(rf, {"PID", "NumberOfIntervals"},
                          std::move(fig14_stmt));
  sql_shapes_.insert(shape_key);
  return fig15;
}

Result<std::vector<RelevantRequirement>> PaperRetrieval::RunSql(
    const Query& q) const {
  const size_t ba = ShapeBucket(q.activities.size());
  const size_t br = ShapeBucket(q.resources.size());
  const size_t bk = q.spec.empty() ? 0 : ShapeBucket(q.spec.size());
  WFRM_ASSIGN_OR_RETURN(std::string fig15, EnsureSqlShape(ba, br, bk));

  // Bind the shape's parameters; slots beyond the real list repeat the
  // last element, which In-list/Or set semantics make a no-op.
  rel::ParamMap params;
  for (size_t i = 0; i < ba; ++i) {
    params["qa" + std::to_string(i)] = rel::Value::String(
        q.activities[std::min(i, q.activities.size() - 1)]);
  }
  for (size_t i = 0; i < br; ++i) {
    params["qr" + std::to_string(i)] = rel::Value::String(
        q.resources[std::min(i, q.resources.size() - 1)]);
  }
  if (bk > 0) {
    // Sorted for a deterministic slot assignment.
    std::vector<std::pair<std::string, std::string>> enc_spec;
    enc_spec.reserve(q.spec.size());
    for (const auto& [attr, value] : q.spec) {
      WFRM_ASSIGN_OR_RETURN(std::string enc, EncodeKey(value));
      enc_spec.emplace_back(attr, std::move(enc));
    }
    std::sort(enc_spec.begin(), enc_spec.end());
    for (size_t j = 0; j < bk; ++j) {
      const auto& [attr, enc] = enc_spec[std::min(j, enc_spec.size() - 1)];
      params["fa" + std::to_string(j)] = rel::Value::String(attr);
      params["fv" + std::to_string(j)] = rel::Value::String(enc);
    }
  }

  std::shared_lock<std::shared_mutex> lock(mu_);
  rel::ExecOptions opts;
  opts.use_indexes = options_.use_indexes;
  rel::Executor exec(&db_, opts);
  rel::PlanLookup outcome = rel::PlanLookup::kMiss;
  WFRM_ASSIGN_OR_RETURN(std::shared_ptr<const rel::PreparedQuery> plan,
                        plan_cache_.GetOrPrepare(exec, fig15, &outcome));
  ++(outcome == rel::PlanLookup::kHit ? plan_cache_hits_
                                      : plan_cache_misses_);
  WFRM_ASSIGN_OR_RETURN(rel::ResultSet rs, exec.Execute(*plan, params));
  candidate_rows_ += exec.stats().rows_scanned;

  std::vector<RelevantRequirement> out;
  out.reserve(rs.rows.size());
  for (const rel::Row& row : rs.rows) {
    out.push_back(RelevantRequirement{row[0].int_value(), row[1].int_value(),
                                      row[2].string_value()});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });
  return out;
}

}  // namespace wfrm::policy
