#include "core/resource_manager.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "rel/executor.h"

namespace wfrm::core {

namespace {

/// "1 query" / "3 queries" for attr strings that are already rendered
/// decimal counts.
std::string CountNoun(const std::string& count, const char* singular,
                      const char* plural) {
  std::string out = count.empty() ? "0" : count;
  out += ' ';
  out += (count == "1") ? singular : plural;
  return out;
}

/// Renders the Explain() prose report from the finished trace. The attr
/// keys consumed here are the contract produced by PolicyManager /
/// Rewriter / RunQueries (see DESIGN.md).
std::string RenderExplainReport(const QueryOutcome& outcome,
                                const obs::EnforcementTrace& trace) {
  const obs::TraceSpan* root = trace.root();
  std::string out;
  out += "Decision report for: " + trace.query_text() + "\n";
  out += "Status: " + root->Attr("status");
  if (outcome.ok()) {
    out += " (" + CountNoun(std::to_string(outcome.candidates.size()),
                            "candidate available", "candidates available") +
           ")";
  } else if (!outcome.status.message().empty()) {
    out += " -- " + outcome.status.message();
  }
  out += "\n\n";

  int step = 1;
  const obs::TraceSpan* primary = root->Find("enforce_primary");
  if (primary != nullptr) {
    const obs::TraceSpan* qual = primary->Find("qualification");
    out += "[" + std::to_string(step++) + "] Qualification (4.1)";
    if (qual != nullptr) {
      out += " -- resource '" + qual->Attr("resource") + "', activity '" +
             qual->Attr("activity") + "'\n";
      out += "    rewrite cache: " + primary->Attr("rewrite_cache") + "\n";
      std::vector<std::string> types = qual->AttrAll("qualified_type");
      if (types.empty()) {
        out +=
            "    no qualification policy matched: under the closed-world "
            "assumption every sub-type is ruled out (3.1)\n";
      }
      for (const std::string& t : types) {
        out += "    - qualified sub-type: " + t + "\n";
      }
    } else {
      out += "\n";
    }

    bool any_requirement = false;
    for (const auto& child : primary->children()) {
      if (child->name() != "requirement") continue;
      if (!any_requirement) {
        out += "[" + std::to_string(step++) + "] Requirement (4.2)\n";
        any_requirement = true;
      }
      out += "    " + child->Attr("type") + ":\n";
      std::vector<std::string> rows = child->AttrAll("policy");
      if (rows.empty()) {
        out += "    - no requirement policy applies\n";
      }
      for (const std::string& row : rows) out += "    - " + row + "\n";
      out += "      enforced: " + child->Attr("enforced_query") + "\n";
    }
  }

  // Execution and substitution stages, in pipeline order.
  for (const auto& child : root->children()) {
    if (child->name() == "execute") {
      out += "[" + std::to_string(step++) + "] Execution (" +
             child->Attr("stage") + "): ran " +
             CountNoun(child->Attr("queries"), "enforced query",
                       "enforced queries") +
             ", " + child->Attr("rows_matched") + " rows matched, " +
             child->Attr("available") + " available, " +
             child->Attr("filtered") + " filtered as busy or down\n";
    } else if (child->name() == "enforce_alternatives") {
      out += "[" + std::to_string(step++) + "] Substitution (4.3), up to " +
             CountNoun(child->Attr("max_rounds"), "round", "rounds") + "\n";
      for (const auto& round : child->children()) {
        if (round->name() != "round") continue;
        out += "    round " + round->Attr("round") + ":\n";
        for (const auto& stage : round->children()) {
          if (stage->name() == "substitution") {
            std::vector<std::string> rows = stage->AttrAll("policy");
            std::vector<std::string> alts = stage->AttrAll("alternative");
            if (rows.empty()) {
              out += "    - no substitution policy applies to '" +
                     stage->Attr("resource") + "'\n";
            }
            for (size_t i = 0; i < rows.size(); ++i) {
              out += "    - " + rows[i] + "\n";
              if (i < alts.size()) {
                out += "      alternative: " + alts[i] + "\n";
              }
            }
          } else if (stage->name() == "enforce_primary") {
            const obs::TraceSpan* q = stage->Find("qualification");
            out += "      re-enforced";
            if (q != nullptr) {
              out += " '" + q->Attr("resource") + "' with fan-out " +
                     q->Attr("fanout");
            }
            out +=
                " (rewrite cache: " + stage->Attr("rewrite_cache") + ")\n";
          }
        }
      }
    }
  }

  out += "\nOutcome: ";
  if (outcome.ok()) {
    out += outcome.used_substitution
               ? "resources found via substitution alternatives"
               : "resources found by the primary enforcement round";
    if (!outcome.candidates.empty()) {
      out += " --";
      for (const org::ResourceRef& ref : outcome.candidates) {
        out += " " + ref.ToString();
      }
    }
  } else {
    out += outcome.status.ToString();
  }
  out += "\n";
  return out;
}

}  // namespace

void ResourceManager::ResolveMetrics() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  const std::string submits_help = "Submit() pipeline outcomes by result.";
  metrics_.submit_ok =
      reg->GetCounter("wfrm_rm_submits_total", {{"result", "ok"}},
                      submits_help);
  metrics_.submit_no_qualified = reg->GetCounter(
      "wfrm_rm_submits_total", {{"result", "no_qualified_resource"}},
      submits_help);
  metrics_.submit_unavailable = reg->GetCounter(
      "wfrm_rm_submits_total", {{"result", "resource_unavailable"}},
      submits_help);
  metrics_.submit_error = reg->GetCounter(
      "wfrm_rm_submits_total", {{"result", "error"}}, submits_help);
  metrics_.submit_deadline_exceeded = reg->GetCounter(
      "wfrm_rm_submits_total", {{"result", "deadline_exceeded"}},
      submits_help);
  metrics_.submit_cancelled = reg->GetCounter(
      "wfrm_rm_submits_total", {{"result", "cancelled"}}, submits_help);
  metrics_.substitution_used = reg->GetCounter(
      "wfrm_rm_substitutions_total", {},
      "Submits that fell back to substitution alternatives (4.3).");
  metrics_.injected_faults = reg->GetCounter(
      "wfrm_rm_injected_faults_total", {},
      "Transient query faults manufactured by the fault injector.");
  const std::string acquires_help = "Acquire() outcomes by result.";
  metrics_.acquire_ok = reg->GetCounter(
      "wfrm_rm_acquires_total", {{"result", "ok"}}, acquires_help);
  metrics_.acquire_failed = reg->GetCounter(
      "wfrm_rm_acquires_total", {{"result", "failed"}}, acquires_help);
  metrics_.acquire_races = reg->GetCounter(
      "wfrm_rm_acquire_races_total", {},
      "Acquire rounds where every candidate was claimed concurrently.");
  metrics_.leases_reaped = reg->GetCounter(
      "wfrm_rm_leases_reaped_total", {},
      "Expired leases reclaimed by ReapExpired().");
  metrics_.submit_latency = reg->GetHistogram(
      "wfrm_rm_submit_latency_micros", obs::Histogram::LatencyBucketsMicros(),
      {}, "End-to-end Submit() latency in microseconds.");
  metrics_.allocated =
      reg->GetGauge("wfrm_rm_allocated_resources", {},
                    "Resources currently held under a lease.");
  metrics_.failed = reg->GetGauge("wfrm_rm_failed_resources", {},
                                  "Resources currently marked down.");
}

void ResourceManager::ApplyScheduledFaults() const {
  if (options_.fault_injector == nullptr) return;
  if (options_.fault_injector->num_scheduled() == 0) return;
  std::vector<FaultInjector::HealthEvent> due =
      options_.fault_injector->DrainDue(clock_->NowMicros());
  if (due.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FaultInjector::HealthEvent& ev : due) {
    if (ev.down) {
      failed_.insert(ev.resource);
    } else {
      failed_.erase(ev.resource);
    }
  }
  UpdateGaugesLocked();
}

bool ResourceManager::IsUnavailableLocked(const org::ResourceRef& ref,
                                          int64_t now_micros) const {
  if (failed_.count(ref) > 0) return true;  // Down resources are invisible.
  auto it = allocated_.find(ref);
  if (it == allocated_.end()) return false;
  // An expired lease no longer protects the allocation: the resource is
  // available again even before a ReapExpired() pass collects it.
  return it->second.deadline_micros > now_micros;
}

Result<size_t> ResourceManager::RunQueries(
    const std::vector<const policy::PreparedScan*>& scans,
    QueryOutcome* outcome, obs::TraceSpan* parent, const char* stage,
    const RequestContext* ctx, const RefList* unavailable) const {
  obs::ScopedSpan span(parent, "execute");
  obs::Attr(span, "stage", stage);
  obs::Attr(span, "queries", static_cast<int64_t>(scans.size()));

  // Shared lock: concurrent submits execute together; org writers
  // (instance inserts, type definitions) are excluded for the duration.
  auto org_lock = org_->ReadLock();
  rel::ExecOptions opts;
  opts.use_indexes = options_.use_indexes;
  rel::Executor exec(&org_->db(), opts);

  size_t found = 0;
  size_t matched = 0;
  std::vector<org::ResourceRef> refs;
  std::vector<char> busy;
  for (const policy::PreparedScan* scan : scans) {
    // Stage boundary: a wide fan-out runs many enforced queries; stop
    // between them once the request expired or was cancelled.
    WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
    WFRM_ASSIGN_OR_RETURN(rel::ResultSet rs, scan->select->Run(exec));
    matched += rs.rows.size();

    // Result schema: ResourceType, Id, then the user's columns.
    if (outcome->resources.schema.num_columns() == 0) {
      rel::Schema schema;
      schema.AddColumn({"ResourceType", rel::DataType::kString});
      for (const rel::Column& c : rs.schema.columns()) schema.AddColumn(c);
      outcome->resources.schema = std::move(schema);
    }
    const std::string& type = scan->query->resource();
    refs.clear();
    refs.reserve(rs.rows.size());
    for (const rel::Row& row : rs.rows) {
      refs.push_back(org::ResourceRef{type, row[0].string_value()});
    }
    // Busy or down resources are unavailable: one pass under one hold.
    busy.assign(refs.size(), 0);
    const int64_t now = clock_->NowMicros();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t i = 0; i < refs.size(); ++i) {
        busy[i] = IsUnavailableLocked(refs[i], now);
      }
    }
    for (size_t i = 0; i < refs.size(); ++i) {
      if (busy[i] != 0) continue;
      if (unavailable != nullptr &&
          std::find(unavailable->begin(), unavailable->end(), refs[i]) !=
              unavailable->end()) {
        continue;
      }
      rel::Row& row = rs.rows[i];
      rel::Row out;
      out.reserve(row.size() + 1);
      out.push_back(rel::Value::String(type));
      for (rel::Value& v : row) out.push_back(std::move(v));
      outcome->resources.rows.push_back(std::move(out));
      outcome->candidates.push_back(std::move(refs[i]));
      ++found;
    }
  }
  obs::Attr(span, "rows_matched", static_cast<int64_t>(matched));
  obs::Attr(span, "available", static_cast<int64_t>(found));
  obs::Attr(span, "filtered", static_cast<int64_t>(matched - found));
  return found;
}

Result<QueryOutcome> ResourceManager::SubmitImpl(
    Request request, obs::EnforcementTrace* trace, const RequestContext* ctx,
    const RefList* unavailable) const {
  const bool timed = metrics_.submit_latency != nullptr;
  const int64_t t0 = timed ? clock_->NowMicros() : 0;
  obs::TraceSpan* root = trace != nullptr ? trace->root() : nullptr;

  Result<QueryOutcome> result = [&]() -> Result<QueryOutcome> {
    // Admission boundary: a request that is already dead never enters
    // the pipeline at all.
    WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
    ApplyScheduledFaults();

    QueryOutcome outcome;
    outcome.status = Status::OK();

    // Chaos hook: a transient infrastructure fault before the pipeline
    // even runs. Reported as kResourceUnavailable so callers retry it
    // exactly like a momentarily exhausted resource pool.
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->SampleQueryFault()) {
      outcome.injected_fault = true;
      outcome.status = Status::ResourceUnavailable(
          "injected transient query fault (fault injector)");
      return outcome;
    }

    // Chaos hook: an injected stall (a slow backend, a lost CPU). Slept
    // in slices so cancellation and deadline expiry are noticed
    // mid-stall instead of after it — exactly what the cooperative
    // checks buy on a real slow path.
    if (options_.fault_injector != nullptr) {
      const int64_t stall =
          options_.fault_injector->SampleQueryLatencyMicros();
      if (stall > 0) {
        constexpr int kSlices = 8;
        const int64_t slice = std::max<int64_t>(stall / kSlices, 1);
        int64_t slept = 0;
        while (slept < stall) {
          WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
          const int64_t step = std::min(slice, stall - slept);
          clock_->SleepForMicros(step);
          slept += step;
        }
        WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
      }
    }

    // Stage 1+2 (§4.1, §4.2): qualification fan-out, requirement
    // enhancement, rendering and scan binding, all in the prepared entry
    // unless the memo already served it.
    std::shared_ptr<const policy::PreparedEnforcement> entry =
        std::move(request.entry);
    if (entry == nullptr) {
      const bool probe = !request.probed;
      WFRM_ASSIGN_OR_RETURN(
          entry, request.owned != nullptr
                     ? policy_manager_.Prepare(std::move(*request.owned),
                                               request.key, probe, root, ctx)
                     : policy_manager_.Prepare(*request.query, request.key,
                                               probe, root, ctx));
    }
    const rql::RqlQuery& query = entry->query;
    std::vector<const policy::PreparedScan*> scans;
    scans.reserve(entry->scans.size());
    outcome.primary_queries.reserve(entry->scans.size());
    for (const policy::PreparedScan& scan : entry->scans) {
      scans.push_back(&scan);
      outcome.primary_queries.push_back(scan.text);
    }
    if (scans.empty()) {
      // CWA: no resource type is qualified for this activity.
      outcome.status = Status::NoQualifiedResource(
          "no qualification policy permits any sub-type of '" +
          query.resource() + "' to carry out activity '" + query.activity() +
          "'");
      return outcome;
    }

    WFRM_ASSIGN_OR_RETURN(size_t found,
                          RunQueries(scans, &outcome, root, "primary", ctx,
                                     unavailable));
    if (found > 0) return outcome;

    // Stage 3 (§4.3): the *initial* query is re-sent for substitution;
    // alternatives re-enter qualification + requirement. By default a
    // single round (never transitive, §1.2); additional rounds are the
    // opt-in recursive extension.
    if (options_.enable_substitution &&
        options_.max_substitution_rounds > 0) {
      // Stage boundary (§4.2 → §4.3): substitution is the expensive
      // fallback; never start it for a dead request.
      WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
      WFRM_ASSIGN_OR_RETURN(
          std::vector<policy::PreparedRound> rounds,
          policy_manager_.PrepareAlternativesRounds(
              query, options_.max_substitution_rounds, root, ctx));
      for (const policy::PreparedRound& alternatives : rounds) {
        if (alternatives.scans.empty()) continue;
        outcome.used_substitution = true;
        for (const policy::PreparedScan* scan : alternatives.scans) {
          outcome.alternative_queries.push_back(scan->text);
        }
        WFRM_ASSIGN_OR_RETURN(found,
                              RunQueries(alternatives.scans, &outcome, root,
                                         "alternatives", ctx, unavailable));
        if (found > 0) return outcome;
      }
    }

    outcome.status = Status::ResourceUnavailable(
        "no available resource satisfies the enforced queries" +
        std::string(outcome.used_substitution ? " (substitution attempted)"
                                              : ""));
    return outcome;
  }();

  if (timed) {
    metrics_.submit_latency->Observe(
        static_cast<double>(clock_->NowMicros() - t0));
  }
  if (result.ok()) {
    const QueryOutcome& o = *result;
    switch (o.status.code()) {
      case StatusCode::kOk:
        if (metrics_.submit_ok != nullptr) metrics_.submit_ok->Increment();
        break;
      case StatusCode::kNoQualifiedResource:
        if (metrics_.submit_no_qualified != nullptr) {
          metrics_.submit_no_qualified->Increment();
        }
        break;
      case StatusCode::kResourceUnavailable:
        if (metrics_.submit_unavailable != nullptr) {
          metrics_.submit_unavailable->Increment();
        }
        break;
      default:
        if (metrics_.submit_error != nullptr) {
          metrics_.submit_error->Increment();
        }
        break;
    }
    if (o.used_substitution && metrics_.substitution_used != nullptr) {
      metrics_.substitution_used->Increment();
    }
    if (o.injected_fault && metrics_.injected_faults != nullptr) {
      metrics_.injected_faults->Increment();
    }
    if (root != nullptr) {
      root->AddAttr("status", StatusCodeToString(o.status.code()));
      root->AddAttr("candidates", static_cast<int64_t>(o.candidates.size()));
      root->AddAttr("used_substitution",
                    o.used_substitution ? "true" : "false");
      if (o.injected_fault) root->AddAttr("injected_fault", "true");
    }
  } else {
    switch (result.status().code()) {
      case StatusCode::kDeadlineExceeded:
        if (metrics_.submit_deadline_exceeded != nullptr) {
          metrics_.submit_deadline_exceeded->Increment();
        }
        break;
      case StatusCode::kCancelled:
        if (metrics_.submit_cancelled != nullptr) {
          metrics_.submit_cancelled->Increment();
        }
        break;
      default:
        if (metrics_.submit_error != nullptr) {
          metrics_.submit_error->Increment();
        }
        break;
    }
    if (root != nullptr) {
      root->AddAttr("status", StatusCodeToString(result.status().code()));
      root->AddAttr("error", result.status().message());
    }
  }
  return result;
}

Result<QueryOutcome> ResourceManager::Submit(const rql::RqlQuery& query,
                                             obs::EnforcementTrace* trace,
                                             const RequestContext* ctx) const {
  const std::string key = policy::Rewriter::EnforcementKey(query);
  return SubmitImpl(Request{.query = &query, .key = key}, trace, ctx);
}

Result<QueryOutcome> ResourceManager::SubmitToSink(
    Request request, const RequestContext* ctx,
    const RefList* unavailable) const {
  if (options_.trace_sink == nullptr) {
    return SubmitImpl(std::move(request), nullptr, ctx, unavailable);
  }
  auto trace = std::make_shared<obs::EnforcementTrace>(
      request.query->ToString(), clock_);
  Result<QueryOutcome> result =
      SubmitImpl(std::move(request), trace.get(), ctx, unavailable);
  trace->Finish();
  options_.trace_sink->Add(std::move(trace));
  return result;
}

Result<QueryOutcome> ResourceManager::SubmitText(
    std::string_view rql_text, const RequestContext* ctx,
    const RefList* unavailable) const {
  // A traced request recomputes its stages anyway, so it parses first
  // and leaves the probe to the rewrite stage, inside its span.
  const bool traced = options_.trace_sink != nullptr;
  if (!traced) {
    auto entry = policy_manager_.FindPrepared(rql_text);
    if (entry != nullptr) {
      return SubmitImpl(Request{.entry = std::move(entry)}, nullptr, ctx,
                        unavailable);
    }
  }
  WFRM_ASSIGN_OR_RETURN(rql::RqlQuery query,
                        rql::ParseAndBindRql(rql_text, *org_));
  return SubmitToSink(Request{.query = &query,
                              .owned = &query,
                              .key = rql_text,
                              .probed = !traced},
                      ctx, unavailable);
}

Result<QueryOutcome> ResourceManager::Submit(
    const rql::RqlQuery& query) const {
  const std::string key = policy::Rewriter::EnforcementKey(query);
  return SubmitToSink(Request{.query = &query, .key = key}, nullptr, nullptr);
}

Result<QueryOutcome> ResourceManager::Submit(
    std::string_view rql_text, const RefList& unavailable) const {
  return SubmitText(rql_text, nullptr, &unavailable);
}

Result<QueryOutcome> ResourceManager::Submit(std::string_view rql_text) const {
  return SubmitText(rql_text, nullptr, nullptr);
}

Result<QueryOutcome> ResourceManager::Submit(std::string_view rql_text,
                                             const RequestContext& ctx) const {
  // A dead request skips even the memo probe and parsing.
  WFRM_RETURN_NOT_OK(ctx.CheckAlive());
  return SubmitText(rql_text, &ctx, nullptr);
}

Result<ResourceManager::Explanation> ResourceManager::ExplainQuery(
    std::string_view rql_text) const {
  WFRM_ASSIGN_OR_RETURN(rql::RqlQuery query,
                        rql::ParseAndBindRql(rql_text, *org_));
  auto trace =
      std::make_shared<obs::EnforcementTrace>(query.ToString(), clock_);
  WFRM_ASSIGN_OR_RETURN(
      QueryOutcome outcome,
      SubmitImpl(Request{.query = &query, .owned = &query, .key = rql_text},
                 trace.get(), nullptr));
  trace->Finish();
  Explanation explanation;
  explanation.report = RenderExplainReport(outcome, *trace);
  explanation.outcome = std::move(outcome);
  explanation.trace = std::move(trace);
  return explanation;
}

Result<std::string> ResourceManager::Explain(std::string_view rql_text) const {
  WFRM_ASSIGN_OR_RETURN(Explanation explanation, ExplainQuery(rql_text));
  return std::move(explanation.report);
}

std::vector<Result<QueryOutcome>> ResourceManager::SubmitBatch(
    const std::vector<std::string>& rql_texts, size_t num_workers,
    const RequestContext& ctx) const {
  return SubmitBatchImpl(rql_texts, num_workers, &ctx);
}

std::vector<Result<QueryOutcome>> ResourceManager::SubmitBatch(
    const std::vector<std::string>& rql_texts, size_t num_workers) const {
  return SubmitBatchImpl(rql_texts, num_workers, nullptr);
}

std::vector<Result<QueryOutcome>> ResourceManager::SubmitBatchImpl(
    const std::vector<std::string>& rql_texts, size_t num_workers,
    const RequestContext* ctx) const {
  // Result<T> has no default constructor: seed every slot with a
  // placeholder error so workers can assign by index.
  std::vector<Result<QueryOutcome>> results;
  results.reserve(rql_texts.size());
  for (size_t i = 0; i < rql_texts.size(); ++i) {
    results.emplace_back(Status::Internal("batch entry not executed"));
  }
  if (rql_texts.empty()) return results;

  auto submit_one = [&](size_t i) {
    results[i] = ctx != nullptr ? Submit(rql_texts[i], *ctx)
                                : Submit(rql_texts[i]);
  };

  size_t hw = std::max(1u, std::thread::hardware_concurrency());
  size_t workers = num_workers == 0 ? std::min(rql_texts.size(), hw)
                                    : std::min(num_workers, rql_texts.size());
  if (workers <= 1) {
    for (size_t i = 0; i < rql_texts.size(); ++i) submit_one(i);
    return results;
  }

  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < rql_texts.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        submit_one(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

size_t ResourceManager::PickCandidate(
    const std::vector<org::ResourceRef>& candidates) {
  switch (options_.allocation_strategy) {
    case AllocationStrategy::kFirst:
      return 0;
    case AllocationStrategy::kRoundRobin:
      return static_cast<size_t>(acquire_count_ % candidates.size());
    case AllocationStrategy::kLeastRecentlyUsed: {
      size_t best = 0;
      uint64_t best_time = ~0ull;
      for (size_t i = 0; i < candidates.size(); ++i) {
        auto it = last_allocated_.find(candidates[i]);
        uint64_t t = it == last_allocated_.end() ? 0 : it->second;
        if (t < best_time) {
          best_time = t;
          best = i;
        }
      }
      return best;
    }
    case AllocationStrategy::kRandom: {
      if (!rng_seeded_) {
        rng_.seed(options_.random_seed);
        rng_seeded_ = true;
      }
      std::uniform_int_distribution<size_t> dist(0, candidates.size() - 1);
      return dist(rng_);
    }
  }
  return 0;
}

Lease ResourceManager::TryClaimLocked(const org::ResourceRef& ref,
                                      int64_t now_micros) {
  if (failed_.count(ref) > 0) return Lease{};  // Down: not claimable.
  auto it = allocated_.find(ref);
  if (it != allocated_.end() && it->second.deadline_micros > now_micros) {
    return Lease{};  // Held under a live lease.
  }
  // Fresh grant, or overwrite of an expired one (the stale lease id
  // keeps the previous holder from releasing this new grant).
  Grant grant;
  grant.lease_id = next_lease_id_++;
  grant.deadline_micros = LeaseDeadline(now_micros);
  allocated_[ref] = grant;
  last_allocated_[ref] = ++logical_clock_;
  UpdateGaugesLocked();
  return Lease{ref, grant.lease_id, grant.deadline_micros};
}

Result<Lease> ResourceManager::Acquire(std::string_view rql_text) {
  return AcquireExcluding(rql_text, org::ResourceRef{});
}

Result<Lease> ResourceManager::Acquire(std::string_view rql_text,
                                       const RequestContext& ctx) {
  return AcquireExcluding(rql_text, org::ResourceRef{}, &ctx);
}

Lease ResourceManager::Claim(const QueryOutcome& outcome,
                             const org::ResourceRef& excluded) {
  const size_t n = outcome.candidates.size();
  if (n > 0) {
    const int64_t now = clock_->NowMicros();
    std::lock_guard<std::mutex> lock(mutex_);
    ++acquire_count_;
    const size_t start = PickCandidate(outcome.candidates);
    for (size_t i = 0; i < n; ++i) {
      const org::ResourceRef& ref = outcome.candidates[(start + i) % n];
      if (!excluded.id.empty() && ref == excluded) continue;
      Lease lease = TryClaimLocked(ref, now);
      if (lease.valid()) return lease;
    }
  }
  // Every candidate was claimed by a concurrent acquirer (or was the
  // excluded resource).
  if (metrics_.acquire_races != nullptr) metrics_.acquire_races->Increment();
  return Lease{};
}

void ResourceManager::CountAcquire(bool granted) const {
  obs::Counter* counter =
      granted ? metrics_.acquire_ok : metrics_.acquire_failed;
  if (counter != nullptr) counter->Increment();
}

Result<Lease> ResourceManager::AcquireExcluding(
    std::string_view rql_text, const org::ResourceRef& excluded,
    const RequestContext* ctx) {
  // Concurrent acquirers race between Submit's availability snapshot and
  // the claim; losing a race is handled by trying the remaining
  // candidates and, if all were snapped up, re-submitting (the fresh
  // snapshot excludes them). Bounded to rule out livelock.
  for (int attempt = 0; attempt < kMaxAcquireRounds; ++attempt) {
    // Retry boundary: a dead request gets no fresh snapshot. The claim
    // below is atomic, so a deadline passing mid-claim still yields the
    // lease — deadlines bound waiting, never undo grants.
    WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
    WFRM_ASSIGN_OR_RETURN(QueryOutcome outcome,
                          ctx != nullptr ? Submit(rql_text, *ctx)
                                         : Submit(rql_text));
    if (!outcome.ok()) {
      CountAcquire(false);
      return outcome.status;
    }
    Lease lease = Claim(outcome, excluded);
    if (lease.valid()) {
      CountAcquire(true);
      return lease;
    }
    // Retry with a fresh snapshot unless exclusion alone exhausted the
    // outcome.
    if (!excluded.id.empty() && outcome.candidates.size() == 1 &&
        outcome.candidates[0] == excluded) {
      CountAcquire(false);
      return Status::ResourceUnavailable(
          "the only candidate is the excluded resource " +
          excluded.ToString());
    }
  }
  CountAcquire(false);
  return Status::ResourceUnavailable(
      "could not claim any candidate under concurrent contention");
}

Result<Lease> ResourceManager::AllocateLease(const org::ResourceRef& ref) {
  // The resource must exist.
  WFRM_RETURN_NOT_OK(org_->GetResource(ref).status());
  ApplyScheduledFaults();
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_.count(ref) > 0) {
    return Status::ResourceUnavailable("resource " + ref.ToString() +
                                       " is down");
  }
  Lease lease = TryClaimLocked(ref, now);
  if (!lease.valid()) {
    return Status::ResourceUnavailable("resource " + ref.ToString() +
                                       " is already allocated");
  }
  return lease;
}

Status ResourceManager::Allocate(const org::ResourceRef& ref) {
  return AllocateLease(ref).status();
}

Status ResourceManager::Release(const org::ResourceRef& ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (allocated_.erase(ref) == 0) {
    return Status::NotAllocated("resource " + ref.ToString() +
                                " is not allocated (never allocated, "
                                "double-released, or reaped)");
  }
  UpdateGaugesLocked();
  return Status::OK();
}

Status ResourceManager::Release(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocated_.find(lease.resource);
  if (it == allocated_.end() || it->second.lease_id != lease.id) {
    return Status::NotAllocated(
        "lease " + std::to_string(lease.id) + " on " +
        lease.resource.ToString() +
        " is no longer current (released, reaped, or superseded)");
  }
  allocated_.erase(it);
  UpdateGaugesLocked();
  return Status::OK();
}

Result<Lease> ResourceManager::RenewLease(const Lease& lease) {
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocated_.find(lease.resource);
  if (it == allocated_.end() || it->second.lease_id != lease.id) {
    return Status::NotAllocated(
        "lease " + std::to_string(lease.id) + " on " +
        lease.resource.ToString() + " cannot be renewed: not current");
  }
  // A renewal that arrives after the deadline but before any reap/claim
  // still wins: the holder proved liveness.
  it->second.deadline_micros = LeaseDeadline(now);
  return Lease{lease.resource, lease.id, it->second.deadline_micros};
}

size_t ResourceManager::ReapExpired() { return ReapExpiredLeases().size(); }

std::vector<Lease> ResourceManager::ReapExpiredLeases() {
  return ReapExpiredLeasesBefore(clock_->NowMicros());
}

std::vector<Lease> ResourceManager::ReapExpiredLeasesBefore(
    int64_t now_micros) {
  return ReapExpiredLeasesBefore(now_micros,
                                 std::numeric_limits<size_t>::max());
}

std::vector<Lease> ResourceManager::ReapExpiredLeasesBefore(
    int64_t now_micros, size_t max_leases) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Lease> reaped;
  for (auto it = allocated_.begin();
       it != allocated_.end() && reaped.size() < max_leases;) {
    if (it->second.deadline_micros <= now_micros) {
      reaped.push_back(
          Lease{it->first, it->second.lease_id, it->second.deadline_micros});
      it = allocated_.erase(it);
    } else {
      ++it;
    }
  }
  if (!reaped.empty()) {
    if (metrics_.leases_reaped != nullptr) {
      metrics_.leases_reaped->Increment(reaped.size());
    }
    UpdateGaugesLocked();
  }
  return reaped;
}

std::vector<Lease> ResourceManager::ExpiredLeasesBefore(
    int64_t now_micros, size_t max_leases) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Lease> expired;
  for (const auto& [ref, grant] : allocated_) {
    if (expired.size() >= max_leases) break;
    if (grant.deadline_micros <= now_micros) {
      expired.push_back(Lease{ref, grant.lease_id, grant.deadline_micros});
    }
  }
  return expired;
}

Status ResourceManager::RestoreLease(const Lease& lease) {
  if (!lease.valid()) {
    return Status::InvalidArgument("cannot restore an invalid lease");
  }
  WFRM_RETURN_NOT_OK(org_->GetResource(lease.resource).status());
  std::lock_guard<std::mutex> lock(mutex_);
  allocated_[lease.resource] = Grant{lease.id, lease.deadline_micros};
  if (next_lease_id_ <= lease.id) next_lease_id_ = lease.id + 1;
  UpdateGaugesLocked();
  return Status::OK();
}

std::vector<Lease> ResourceManager::ListLeases() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Lease> leases;
  leases.reserve(allocated_.size());
  for (const auto& [ref, grant] : allocated_) {
    leases.push_back(Lease{ref, grant.lease_id, grant.deadline_micros});
  }
  return leases;
}

std::optional<Lease> ResourceManager::FindLease(
    const org::ResourceRef& ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocated_.find(ref);
  if (it == allocated_.end()) return std::nullopt;
  return Lease{ref, it->second.lease_id, it->second.deadline_micros};
}

uint64_t ResourceManager::next_lease_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lease_id_;
}

void ResourceManager::AdvanceLeaseId(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_lease_id_ < id) next_lease_id_ = id;
}

bool ResourceManager::IsLeaseActive(const Lease& lease) const {
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocated_.find(lease.resource);
  return it != allocated_.end() && it->second.lease_id == lease.id &&
         it->second.deadline_micros > now;
}

bool ResourceManager::IsAllocated(const org::ResourceRef& ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_.count(ref) > 0;
}

size_t ResourceManager::num_allocated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_.size();
}

Status ResourceManager::MarkFailed(const org::ResourceRef& ref) {
  // Only real resources have health.
  WFRM_RETURN_NOT_OK(org_->GetResource(ref).status());
  std::lock_guard<std::mutex> lock(mutex_);
  failed_.insert(ref);
  UpdateGaugesLocked();
  return Status::OK();
}

Status ResourceManager::MarkRecovered(const org::ResourceRef& ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  failed_.erase(ref);  // Idempotent: recovering an up resource is a no-op.
  UpdateGaugesLocked();
  return Status::OK();
}

bool ResourceManager::IsFailed(const org::ResourceRef& ref) const {
  // Health is a lazily-synchronized view of the fault schedule: sync it
  // so a reader sees transitions that are already due.
  ApplyScheduledFaults();
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_.count(ref) > 0;
}

size_t ResourceManager::num_failed() const {
  ApplyScheduledFaults();
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_.size();
}

}  // namespace wfrm::core
