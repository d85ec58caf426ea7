#ifndef WFRM_CORE_RESOURCE_MANAGER_H_
#define WFRM_CORE_RESOURCE_MANAGER_H_

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/request_context.h"
#include "common/result.h"
#include "core/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "org/org_model.h"
#include "policy/policy_manager.h"
#include "policy/policy_store.h"
#include "rql/rql.h"

namespace wfrm::core {

/// How Acquire() picks among multiple available candidates.
enum class AllocationStrategy {
  /// The first candidate in enforced-query order (deterministic; primary
  /// queries before alternatives).
  kFirst,
  /// Rotate through candidates across calls (fair under contention).
  kRoundRobin,
  /// The candidate least recently allocated by this manager (workload
  /// spreading with memory across releases).
  kLeastRecentlyUsed,
  /// Uniformly random among candidates (seeded, reproducible).
  kRandom,
};

struct ResourceManagerOptions {
  /// Disable to stop after the primary rewriting (no §4.3 fallback).
  bool enable_substitution = true;
  /// How many substitution rounds to attempt when nothing is available.
  /// The paper fixes this at 1 ("we choose not to substitute the
  /// requested resources more than once", §1.2); larger values enable
  /// the recursive variant the paper discusses and rejects — rounds stop
  /// at the first one that yields available resources, and cycles are
  /// never re-explored.
  size_t max_substitution_rounds = 1;
  /// Index usage for resource retrieval (the org database).
  bool use_indexes = true;
  /// Candidate choice in Acquire().
  AllocationStrategy allocation_strategy = AllocationStrategy::kFirst;
  /// Seed for AllocationStrategy::kRandom.
  uint64_t random_seed = 42;

  // ---- Failure model -----------------------------------------------------

  /// Time source for lease deadlines and scheduled faults. nullptr =
  /// SystemClock::Default(). Inject a SimulatedClock for deterministic
  /// expiry/fault replay.
  Clock* clock = nullptr;
  /// How long an allocation's lease lasts before it can be reaped.
  /// 0 = leases never expire (the seed's hold-until-release semantics).
  int64_t lease_duration_micros = 0;
  /// Optional fault source: its schedule drives resource health
  /// transitions (drained on query entry) and its query_fault_rate
  /// injects transient kResourceUnavailable outcomes into Submit().
  /// Not owned; may be shared across managers.
  FaultInjector* fault_injector = nullptr;

  // ---- Observability -----------------------------------------------------

  /// Metric instruments (submit/acquire counters, latency histograms,
  /// allocation gauges) are registered here when non-null. Instrument
  /// pointers are resolved once at construction, so the enabled hot-path
  /// cost is a few relaxed atomic ops and the disabled path one branch.
  /// Not owned; may be shared across managers. To also mirror the policy
  /// store's cache counters, attach the registry to the store with
  /// PolicyStore::set_metrics.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null, every Submit records an EnforcementTrace decision
  /// log (rewrite stages, matched policy PIDs, cache outcomes,
  /// candidate-set sizes) and delivers it here. Not owned. Tracing is
  /// per query and allocation-heavy; leave null on hot paths and use
  /// Explain() for ad-hoc inspection.
  obs::TraceSink* trace_sink = nullptr;
};

/// A granted allocation: the resource, a unique lease id, and the
/// deadline by which the holder must Complete/Release or RenewLease()
/// before a ReapExpired() pass may reclaim the resource. Value type —
/// copy it freely; the ResourceManager keeps the authoritative record.
struct Lease {
  /// Deadline value for leases that never expire.
  static constexpr int64_t kNoExpiry = std::numeric_limits<int64_t>::max();

  org::ResourceRef resource;
  /// Unique per grant; 0 = invalid/never granted. A reclaimed resource
  /// re-acquired later gets a fresh id, so a stale lease can never
  /// release the new holder's allocation.
  uint64_t id = 0;
  int64_t deadline_micros = kNoExpiry;

  bool valid() const { return id != 0; }
};

/// Per-resource health (paper-era "resource became unavailable" is
/// modelled as kDown; substitution then doubles as graceful
/// degradation).
enum class HealthState { kUp, kDown };

/// Trace + result of one resource request through the Figure 1 pipeline.
struct QueryOutcome {
  /// kOk — resources found (possibly via substitution);
  /// kNoQualifiedResource — the CWA ruled out every resource type (§3.1);
  /// kResourceUnavailable — rewritten queries (and alternatives, §2.1)
  /// matched nothing available, or a transient fault was injected.
  Status status;

  /// The §4.1+§4.2 enforced queries, rendered.
  std::vector<std::string> primary_queries;
  /// The §4.3 alternatives (each re-enforced), rendered; empty when the
  /// primary round succeeded or substitution is disabled.
  std::vector<std::string> alternative_queries;
  bool used_substitution = false;
  /// True when the outcome's failure was manufactured by the fault
  /// injector rather than observed from the org database.
  bool injected_fault = false;

  /// Matching *available* resources: ResourceType, Id, then the query's
  /// select list.
  rel::ResultSet resources;
  /// The same resources as references, aligned with `resources.rows`.
  std::vector<org::ResourceRef> candidates;

  bool ok() const { return status.ok(); }
};

/// The resource manager per se plus the query processor of Figure 1:
/// accepts RQL, runs policy enforcement, executes the enforced queries
/// against the organization's resource tables, applies availability, and
/// falls back to substitution alternatives exactly once.
///
/// Availability is allocation- and health-based: Allocate()/Acquire()
/// mark a resource busy, MarkFailed() marks it down; busy or down
/// resources never appear in query outcomes until released/reaped
/// (busy) or MarkRecovered() (down).
///
/// Every allocation carries a Lease. With lease_duration_micros == 0
/// leases never expire and behave exactly like the original
/// hold-until-release allocations. With a positive duration, a holder
/// that neither completes nor renews within the window loses the claim:
/// ReapExpired() reclaims the resource, and a concurrent acquirer may
/// overwrite an expired record directly. Stale leases are harmless —
/// Release/RenewLease through them fail with kNotAllocated instead of
/// touching the new holder's grant.
///
/// Thread safety: allocation bookkeeping (Allocate / Release /
/// IsAllocated / Acquire / RenewLease / ReapExpired) and health state
/// are internally synchronized, and Acquire claims a candidate
/// atomically (two threads acquiring concurrently never receive the
/// same resource; the loser falls through to the next candidate or to
/// substitution). Queries hold the org model's read lock while executing
/// and the policy store synchronizes internally, so policy/org mutations
/// may run concurrently with Submit — each query observes either the
/// state before or after a given mutation, never a torn mix (the store's
/// epoch keeps cached derivations equally consistent).
class ResourceManager {
 public:
  ResourceManager(org::OrgModel* org, policy::PolicyStore* store,
                  ResourceManagerOptions options = {})
      : org_(org),
        store_(store),
        options_(options),
        clock_(options.clock ? options.clock : SystemClock::Default()),
        policy_manager_(org, store) {
    ResolveMetrics();
  }

  /// Parses, binds, enforces and executes an RQL request.
  Result<QueryOutcome> Submit(std::string_view rql_text) const;

  /// Submit under a request context: the pipeline checks the context's
  /// deadline and cancellation token at every stage boundary (pipeline
  /// entry, after the §4.1/§4.2 rewrite, between enforced-query
  /// executions, before each substitution round) and aborts typed —
  /// kDeadlineExceeded / kCancelled as a failed Result — once the
  /// request is not worth finishing. A default context restores the
  /// plain Submit exactly.
  Result<QueryOutcome> Submit(std::string_view rql_text,
                              const RequestContext& ctx) const;

  /// Same for an already parsed-and-bound query.
  Result<QueryOutcome> Submit(const rql::RqlQuery& query) const;

  /// Submit as if every ref in `unavailable` were busy, in the primary
  /// round and in substitution alike; allocation state is only read.
  /// Offline analysis uses it to see who substitutes for the primaries
  /// without leasing them.
  Result<QueryOutcome> Submit(
      std::string_view rql_text,
      const std::vector<org::ResourceRef>& unavailable) const;

  /// Submit, recording the full decision log into `trace` (may be null —
  /// then identical to Submit). The caller owns the trace and calls
  /// Finish(); the configured trace_sink is NOT involved. `ctx` (may be
  /// null) is the per-request overload envelope.
  Result<QueryOutcome> Submit(const rql::RqlQuery& query,
                              obs::EnforcementTrace* trace,
                              const RequestContext* ctx = nullptr) const;

  /// Runs the full enforcement pipeline for `rql_text` (no allocation)
  /// and renders a human-readable decision report: which qualification
  /// rows fanned the query out (§4.1), which requirement conjuncts were
  /// appended with their [ActivityAttr] substitutions (§4.2), which
  /// substitution policy — if any — replaced the From/Where (§4.3), and
  /// the availability outcome, each with the responsible policy PIDs.
  Result<std::string> Explain(std::string_view rql_text) const;

  /// Explain's machinery with the raw materials exposed: the outcome
  /// plus the finished trace (for programmatic assertions).
  struct Explanation {
    QueryOutcome outcome;
    std::shared_ptr<const obs::EnforcementTrace> trace;
    std::string report;
  };
  Result<Explanation> ExplainQuery(std::string_view rql_text) const;

  /// Fans a batch of independent RQL requests across a small worker
  /// pool; element i of the result is Submit(rql_texts[i]). Workers
  /// share the enforcement caches and take only shared (reader) locks on
  /// the org model and policy store, so throughput scales with cores.
  /// num_workers == 0 picks min(batch size, hardware concurrency).
  std::vector<Result<QueryOutcome>> SubmitBatch(
      const std::vector<std::string>& rql_texts,
      size_t num_workers = 0) const;

  /// SubmitBatch under one shared request context: entries not yet
  /// started when the context dies fail typed instead of running.
  std::vector<Result<QueryOutcome>> SubmitBatch(
      const std::vector<std::string>& rql_texts, size_t num_workers,
      const RequestContext& ctx) const;

  /// Submits and allocates a candidate chosen by the configured
  /// allocation strategy, atomically with respect to concurrent
  /// Acquire() calls. The returned lease is the receipt for
  /// RenewLease/Release.
  Result<Lease> Acquire(std::string_view rql_text);

  /// Acquire under a request context. Deadlines bound waiting, never
  /// side effects: once a claim lands the lease is returned even if the
  /// deadline passed during the claim.
  Result<Lease> Acquire(std::string_view rql_text, const RequestContext& ctx);

  /// Acquire, but never hands out `excluded` even if the pipeline
  /// offers it — the recovery path after `excluded`'s holder died: the
  /// full enforcement pipeline runs afresh and the replacement is drawn
  /// from that outcome minus the failed resource.
  Result<Lease> AcquireExcluding(std::string_view rql_text,
                                 const org::ResourceRef& excluded,
                                 const RequestContext* ctx = nullptr);

  /// Claim rounds an acquire runs before giving up under contention.
  static constexpr int kMaxAcquireRounds = 8;

  /// The claim half of Acquire, which is Submit then Claim. Under the
  /// allocation lock, takes the first candidate of `outcome` (a
  /// successful Submit) that is still free and up, in allocation-strategy
  /// order, never `excluded`. Returns an invalid lease when none is left
  /// — one lost claim round, counted in wfrm_rm_acquire_races_total; the
  /// caller re-submits for a fresh availability snapshot.
  Lease Claim(const QueryOutcome& outcome,
              const org::ResourceRef& excluded = {});

  /// Counts one finished acquire in wfrm_rm_acquires_total{result}.
  /// Acquire counts its own; a caller that runs Submit and Claim itself
  /// (the durable layer journals between the claim and the reply)
  /// reports here.
  void CountAcquire(bool granted) const;

  // ---- Allocation bookkeeping ------------------------------------------

  /// Allocates a specific resource (it must exist and be up), returning
  /// its lease.
  Result<Lease> AllocateLease(const org::ResourceRef& ref);

  /// Back-compat wrapper: AllocateLease, dropping the lease (the record
  /// is still lease-tracked internally; Release(ref) frees it).
  Status Allocate(const org::ResourceRef& ref);

  /// Releases whatever lease currently holds `ref`. kNotAllocated when
  /// the resource is not allocated (never allocated, double-released,
  /// or already reaped).
  Status Release(const org::ResourceRef& ref);

  /// Releases through a lease receipt: fails with kNotAllocated when
  /// the lease is stale (expired+reaped or superseded by a newer
  /// grant), leaving any newer grant untouched.
  Status Release(const Lease& lease);

  /// Extends a live lease by lease_duration_micros from now, returning
  /// the refreshed lease. kNotAllocated when the lease is stale. With
  /// expiry disabled this is a no-op that returns the lease unchanged.
  Result<Lease> RenewLease(const Lease& lease);

  /// Reclaims every allocation whose lease deadline has passed; returns
  /// how many were reaped. Cheap when nothing is expired — callers may
  /// run it on a timer or before allocation-sensitive decisions.
  size_t ReapExpired();

  /// ReapExpired, but returning the reclaimed leases themselves — the
  /// durable layer journals one release per reaped lease so replay
  /// reproduces the reap exactly.
  std::vector<Lease> ReapExpiredLeases();

  /// ReapExpiredLeases with a pinned cutoff: reclaims exactly the
  /// grants whose deadline is <= `now_micros`. The durable layer
  /// journals the expired set first and then reaps it; a cutoff read
  /// from a moving clock could reap more than was journaled.
  std::vector<Lease> ReapExpiredLeasesBefore(int64_t now_micros);

  /// Bounded variant: reclaims at most `max_leases` expired grants, in
  /// resource order (the map's deterministic iteration order, so a
  /// caller that journaled the first-N expired leases reaps exactly
  /// those N). Keeps the critical section O(max_leases) instead of
  /// O(all allocations) when thousands of leases expire at once —
  /// callers loop until a pass reaps fewer than the cap.
  std::vector<Lease> ReapExpiredLeasesBefore(int64_t now_micros,
                                             size_t max_leases);

  /// The first `max_leases` expired grants at the pinned cutoff, in the
  /// same deterministic order ReapExpiredLeasesBefore would reap them —
  /// what the durable layer journals before reaping a batch.
  std::vector<Lease> ExpiredLeasesBefore(int64_t now_micros,
                                         size_t max_leases) const;

  // ---- Persistence (src/store recovery) --------------------------------

  /// Re-installs a persisted grant during recovery, bypassing
  /// availability checks (the journal proves the grant was made). Any
  /// existing grant on the resource is overwritten — replaying a renew
  /// record over its acquire record is the normal case. The resource
  /// must exist in the (already recovered) org model, and the lease-id
  /// high-water mark advances past `lease.id` so later grants never
  /// reuse a persisted id.
  Status RestoreLease(const Lease& lease);

  /// Every current grant as a lease, ordered by resource (snapshots;
  /// expired-but-unreaped grants are included, matching live state).
  std::vector<Lease> ListLeases() const;

  /// The live lease currently recorded on `ref`, if any.
  std::optional<Lease> FindLease(const org::ResourceRef& ref) const;

  /// Lease-id high-water mark: the id the next grant would get.
  /// Persisted in snapshots so recovery never reuses an id already
  /// handed out (stale-lease protection depends on uniqueness).
  uint64_t next_lease_id() const;
  /// Raises the high-water mark to at least `id` (recovery only).
  void AdvanceLeaseId(uint64_t id);

  /// True when `lease` is the current grant on its resource and has not
  /// expired.
  bool IsLeaseActive(const Lease& lease) const;

  bool IsAllocated(const org::ResourceRef& ref) const;
  size_t num_allocated() const;

  // ---- Health ----------------------------------------------------------

  /// Marks a resource down: it stops appearing in query outcomes and
  /// cannot be allocated until MarkRecovered(). An existing allocation
  /// is left in place — the holder's engine notices via IsFailed() and
  /// reassigns, or the lease expires and is reaped.
  Status MarkFailed(const org::ResourceRef& ref);
  Status MarkRecovered(const org::ResourceRef& ref);
  bool IsFailed(const org::ResourceRef& ref) const;
  size_t num_failed() const;

  const policy::PolicyManager& policy_manager() const {
    return policy_manager_;
  }
  /// The policy store this manager enforces from. Callers holding only
  /// an rm (the shard router fans out over many) read per-store cache
  /// stats and the enforcement epoch through here.
  const policy::PolicyStore* policy_store() const { return store_; }
  org::OrgModel& org() { return *org_; }
  Clock& clock() const { return *clock_; }
  const ResourceManagerOptions& options() const { return options_; }

 private:
  struct Grant {
    uint64_t lease_id = 0;
    int64_t deadline_micros = Lease::kNoExpiry;
  };

  /// Refs a Submit treats as busy on top of the allocation table.
  using RefList = std::vector<org::ResourceRef>;

  /// Runs prepared scans; appends hits to `outcome`. Returns the number
  /// of available resources found. When `parent` is non-null an
  /// "execute" span records matched/available/filtered row counts for
  /// `stage` ("primary" or "alternatives").
  Result<size_t> RunQueries(
      const std::vector<const policy::PreparedScan*>& scans,
      QueryOutcome* outcome, obs::TraceSpan* parent, const char* stage,
      const RequestContext* ctx, const RefList* unavailable) const;

  /// What SubmitImpl enforces: an entry the memo already served, or a
  /// bound query to prepare at the rewrite stage, memoized under `key`.
  /// `owned` is `query` when the callee may take it; `probed` means the
  /// caller already missed on `key`.
  struct Request {
    std::shared_ptr<const policy::PreparedEnforcement> entry = nullptr;
    const rql::RqlQuery* query = nullptr;
    rql::RqlQuery* owned = nullptr;
    std::string_view key = {};
    bool probed = false;
  };

  /// The traced/metered Submit body; `trace`, `ctx` and `unavailable`
  /// may be null.
  Result<QueryOutcome> SubmitImpl(Request request,
                                  obs::EnforcementTrace* trace,
                                  const RequestContext* ctx,
                                  const RefList* unavailable = nullptr) const;

  /// SubmitImpl, delivering a decision log to options_.trace_sink when
  /// one is configured.
  Result<QueryOutcome> SubmitToSink(Request request, const RequestContext* ctx,
                                    const RefList* unavailable) const;

  /// Submit of request text: an untraced call probes the memo by the raw
  /// text and parses only on a miss.
  Result<QueryOutcome> SubmitText(std::string_view rql_text,
                                  const RequestContext* ctx,
                                  const RefList* unavailable) const;

  std::vector<Result<QueryOutcome>> SubmitBatchImpl(
      const std::vector<std::string>& rql_texts, size_t num_workers,
      const RequestContext* ctx) const;

  /// Resolves metric instrument pointers from options_.metrics (no-op
  /// when detached).
  void ResolveMetrics();

  /// Updates the allocation/health gauges. Lock held.
  void UpdateGaugesLocked() const {
    if (metrics_.allocated != nullptr) {
      metrics_.allocated->Set(static_cast<int64_t>(allocated_.size()));
    }
    if (metrics_.failed != nullptr) {
      metrics_.failed->Set(static_cast<int64_t>(failed_.size()));
    }
  }

  /// Applies due scheduled fault-injector health events. Called on
  /// query entry; const because health is a lazily-synchronized view of
  /// the external fault schedule.
  void ApplyScheduledFaults() const;

  /// Busy (under a live lease) or down. Lock held.
  bool IsUnavailableLocked(const org::ResourceRef& ref,
                           int64_t now_micros) const;

  /// Claims `ref` (fresh grant or overwrite of an expired one); returns
  /// the lease, or invalid lease if the resource is held or down. Lock
  /// held.
  Lease TryClaimLocked(const org::ResourceRef& ref, int64_t now_micros);

  /// Applies the configured allocation strategy to a non-empty
  /// candidate list; returns the chosen index.
  size_t PickCandidate(const std::vector<org::ResourceRef>& candidates);

  int64_t LeaseDeadline(int64_t now_micros) const {
    return options_.lease_duration_micros > 0
               ? now_micros + options_.lease_duration_micros
               : Lease::kNoExpiry;
  }

  /// Resolved instruments; all null when options_.metrics is null.
  struct Instruments {
    obs::Counter* submit_ok = nullptr;
    obs::Counter* submit_no_qualified = nullptr;
    obs::Counter* submit_unavailable = nullptr;
    obs::Counter* submit_error = nullptr;
    obs::Counter* submit_deadline_exceeded = nullptr;
    obs::Counter* submit_cancelled = nullptr;
    obs::Counter* substitution_used = nullptr;
    obs::Counter* injected_faults = nullptr;
    obs::Counter* acquire_ok = nullptr;
    obs::Counter* acquire_failed = nullptr;
    obs::Counter* acquire_races = nullptr;
    obs::Counter* leases_reaped = nullptr;
    obs::Histogram* submit_latency = nullptr;
    obs::Gauge* allocated = nullptr;
    obs::Gauge* failed = nullptr;
  };

  org::OrgModel* org_;
  policy::PolicyStore* store_;
  ResourceManagerOptions options_;
  Clock* clock_;
  policy::PolicyManager policy_manager_;
  Instruments metrics_;
  /// Guards allocated_, failed_ and the strategy state.
  mutable std::mutex mutex_;
  std::map<org::ResourceRef, Grant> allocated_;
  /// Down resources (health). Mutable: lazily synchronized from the
  /// fault injector's schedule on (const) query entry.
  mutable std::set<org::ResourceRef> failed_;
  uint64_t next_lease_id_ = 1;
  // Strategy state (guarded by mutex_).
  uint64_t acquire_count_ = 0;
  uint64_t logical_clock_ = 0;
  std::map<org::ResourceRef, uint64_t> last_allocated_;
  std::mt19937_64 rng_{42};
  bool rng_seeded_ = false;
};

}  // namespace wfrm::core

#endif  // WFRM_CORE_RESOURCE_MANAGER_H_
