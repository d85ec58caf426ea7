#ifndef WFRM_POLICY_POLICY_STORE_H_
#define WFRM_POLICY_POLICY_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "org/org_model.h"
#include "policy/compiled_policy.h"
#include "policy/dnf.h"
#include "policy/policy_ast.h"
#include "rel/database.h"
#include "rel/executor.h"

namespace wfrm::policy {

/// Raw relational image of the policy base: the exact rows of the five
/// §5 relations plus the id counters and the store-local epoch (see
/// PolicyStore::Image, its canonical alias).
struct PolicyImage {
  std::vector<rel::Row> qualifications;
  std::vector<rel::Row> policies;
  std::vector<rel::Row> filter;
  std::vector<rel::Row> subst_policies;
  std::vector<rel::Row> subst_filter;
  int64_t next_pid = 100;  // The paper's examples start at PID 100.
  int64_t next_group = 1;
  uint64_t epoch = 0;
};

/// Durable backing for a lazily-hydrated policy base (the paged storage
/// engine implements this). MayHaveActivity is a bloom-filter probe —
/// false negatives are impossible, so a negative answer proves no
/// stored Qualifications/Policies/SubstPolicies row names the activity
/// and retrieval can answer from the (still empty) in-memory relations
/// without touching disk.
class PolicyImageSource {
 public:
  virtual ~PolicyImageSource() = default;
  /// Full durable image; called once, on first hydration.
  virtual Result<PolicyImage> LoadImage() = 0;
  /// May any stored policy row reference `activity` (canonical name)?
  virtual bool MayHaveActivity(const std::string& activity) const = 0;
};

/// Which §5 relation a PolicyRowDelta touches.
enum class PolicyRelation : uint8_t {
  kQualifications = 0,
  kPolicies = 1,
  kFilter = 2,
  kSubstPolicies = 3,
  kSubstFilter = 4,
};

/// One row inserted into or deleted from a policy relation since the
/// last checkpoint. The row is carried whole so the storage layer can
/// derive its tree key without consulting the in-memory tables.
struct PolicyRowDelta {
  PolicyRelation relation = PolicyRelation::kQualifications;
  bool deleted = false;
  rel::Row row;
};

/// Drained by TakePendingDeltas. `overflowed` means the delta log was
/// capped (or the whole base was replaced via ImportImage) and the
/// consumer must fall back to a full image rewrite.
struct PendingPolicyDeltas {
  std::vector<PolicyRowDelta> deltas;
  bool overflowed = false;
};

/// A requirement policy row found relevant for a query (paper §4.2).
struct RelevantRequirement {
  int64_t pid = 0;
  /// Rows produced from the same source policy (one per DNF disjunct of
  /// its With clause) share a group; enforcement applies the WhereClause
  /// once per group.
  int64_t group = 0;
  std::string where_clause;  // Stored SQL text; empty = no condition.
};

/// A substitution policy row found relevant for a query (paper §4.3).
struct RelevantSubstitution {
  int64_t pid = 0;
  int64_t group = 0;
  std::string substituted_resource;
  std::string substituted_where;    // Range-clause text; may be empty.
  std::string substituting_resource;
  std::string substituting_where;   // Range-clause text; may be empty.
};

/// Copyable point-in-time view of StoreStats (the live struct is atomic
/// and therefore non-copyable): benches and tests capture one before and
/// one after a phase and diff them, without racing a concurrent Reset().
struct StoreStatsSnapshot {
  uint64_t retrievals = 0;
  uint64_t candidate_rows = 0;
  uint64_t interval_rows = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t rewrite_cache_hits = 0;
  uint64_t rewrite_cache_misses = 0;
  // Compiled policy tables (flat interval arrays for warm Enforce).
  uint64_t compiled_builds = 0;
  uint64_t compiled_probes = 0;
  // Lazy-hydration bloom gate (paged backend): pre-hydration retrievals
  // that consulted the per-activity filter, and the subset it answered
  // without touching disk.
  uint64_t bloom_probes = 0;
  uint64_t bloom_skips = 0;
  /// The enforcement epoch at capture time (PolicyStore::StatsSnapshot
  /// stamps it; a bare StoreStats::Snapshot leaves 0). Sharded
  /// deployments compare per-shard epochs across snapshots to prove one
  /// tenant's mutations never invalidated another shard's caches.
  uint64_t epoch = 0;

  /// Counter-wise difference (this - earlier), for before/after diffing.
  /// `epoch` is not a counter: the later capture's value is kept.
  StoreStatsSnapshot operator-(const StoreStatsSnapshot& earlier) const;

  /// Retrieval-cache hit rate over probes that reached the cache.
  double CacheHitRate() const {
    uint64_t probes = cache_hits + cache_misses + cache_invalidations;
    return probes == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(probes);
  }
};

/// Retrieval work counters (complement wall-clock benchmarks). Atomic so
/// concurrent read-only retrievals do not race on bookkeeping.
struct StoreStats {
  std::atomic<uint64_t> retrievals{0};
  std::atomic<uint64_t> candidate_rows{0};   // Policy rows inspected.
  std::atomic<uint64_t> interval_rows{0};    // Filter rows inspected.
  // Compiled-table lookups (requirement retrieval, compiled tables on).
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  /// Probes of either cache that found an entry built at an older epoch
  /// (or, for the prepared memo, an older org catalog): a mutation
  /// invalidated it between the fill and this probe.
  std::atomic<uint64_t> cache_invalidations{0};
  // Prepared-enforcement memo traffic (PolicyManager level).
  std::atomic<uint64_t> rewrite_cache_hits{0};
  std::atomic<uint64_t> rewrite_cache_misses{0};
  // Compiled policy tables: lazy builds and warm probes.
  std::atomic<uint64_t> compiled_builds{0};
  std::atomic<uint64_t> compiled_probes{0};
  // Lazy-hydration bloom gate (paged backend).
  std::atomic<uint64_t> bloom_probes{0};
  std::atomic<uint64_t> bloom_skips{0};

  StoreStatsSnapshot Snapshot() const {
    StoreStatsSnapshot s;
    s.retrievals = retrievals.load();
    s.candidate_rows = candidate_rows.load();
    s.interval_rows = interval_rows.load();
    s.cache_hits = cache_hits.load();
    s.cache_misses = cache_misses.load();
    s.cache_invalidations = cache_invalidations.load();
    s.rewrite_cache_hits = rewrite_cache_hits.load();
    s.rewrite_cache_misses = rewrite_cache_misses.load();
    s.compiled_builds = compiled_builds.load();
    s.compiled_probes = compiled_probes.load();
    s.bloom_probes = bloom_probes.load();
    s.bloom_skips = bloom_skips.load();
    return s;
  }

  void Reset() {
    retrievals = 0;
    candidate_rows = 0;
    interval_rows = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidations = 0;
    rewrite_cache_hits = 0;
    rewrite_cache_misses = 0;
    compiled_builds = 0;
    compiled_probes = 0;
    bloom_probes = 0;
    bloom_skips = 0;
  }
};

/// The five §5 relations and the index probes that every requirement
/// path shares: the store's reference plan and compiled-table build, and
/// the paper ablations (paper_retrieval.h), which load the same rows
/// into a database of their own.
///
///   Qualifications(PID, Resource, Activity)
///   Policies(PID, GroupID, Activity, Resource, NumberOfIntervals,
///            WhereClause)                       — requirement policies
///   Filter(PID, Attribute, LowerBound, UpperBound, LowerInclusive,
///          UpperInclusive)                      — one row per interval
///   SubstPolicies / SubstFilter                 — substitution policies
namespace relations {

inline constexpr char kQualifications[] = "Qualifications";
inline constexpr char kPolicies[] = "Policies";
inline constexpr char kFilter[] = "Filter";
inline constexpr char kSubstPolicies[] = "SubstPolicies";
inline constexpr char kSubstFilter[] = "SubstFilter";

/// Creates the five relations in an empty `db` with their indexes:
/// (Activity, Resource) on both policy tables and (Attribute,
/// LowerBound, UpperBound) on both filter tables (§5.2), Filter by PID,
/// and Qualifications by Activity.
void CreatePolicyRelations(rel::Database* db);

/// Replaces the rows of relations made by CreatePolicyRelations with
/// the rows of `image` (re-validated against the schemas).
Status LoadRows(const PolicyImage& image, rel::Database* db);

/// Rows one retrieval inspected.
struct ScanWork {
  uint64_t candidate_rows = 0;  // Policy rows.
  uint64_t interval_rows = 0;   // Filter rows.
};

/// A policy row that passed Figure 13's (Activity, Resource) test.
struct CandidateRow {
  int64_t pid;
  int64_t group;
  int64_t num_intervals;
  const rel::Row* row;
};

/// Figure 13 through the concatenated index: the rows of policy table
/// `table` whose Activity and Resource are among the given ancestors.
std::vector<CandidateRow> CandidatePolicies(
    const rel::Database& db, const char* table,
    const std::vector<std::string>& activities,
    const std::vector<std::string>& resources, ScanWork* work);

/// Figure 14 through the concatenated index: per PID, how many of its
/// `filter_table` intervals enclose the binding of their attribute in
/// `spec` (canonical attribute names).
Result<std::unordered_map<int64_t, int64_t>> CountEnclosingIntervals(
    const rel::Database& db, const char* filter_table,
    const rel::ParamMap& spec, ScanWork* work);

/// True when the Filter row's interval encloses the encoded value.
bool Encloses(const rel::Row& filter_row, const std::string& encoded);

/// Figure 15's union, where both join orders end: the candidates all of
/// whose intervals enclose the specification (`enclosing[pid]` equals
/// NumberOfIntervals), plus those that constrain none; sorted by PID.
std::vector<RelevantRequirement> MergeCandidates(
    const std::vector<CandidateRow>& candidates,
    const std::unordered_map<int64_t, int64_t>& enclosing);

/// Rewrites spec keys to their declared spelling on the activity type,
/// so lookups match stored rows exactly.
rel::ParamMap CanonicalizeSpec(const org::OrgModel& org,
                               const std::string& activity,
                               const rel::ParamMap& spec);

}  // namespace relations

/// The policy base (paper §5): policies decomposed into the relations
/// above, inside an embedded in-memory database.
///
/// On insertion a requirement/substitution policy's With clause is
/// normalized to DNF; each disjunct becomes its own PID row (sharing a
/// GroupID) whose conjunctive range is stored as per-attribute intervals
/// in the filter relation (§5.1). Interval bounds are strings under an
/// order-preserving encoding (key_encoding.h) so one concatenated index
/// on (Attribute, LowerBound, UpperBound) serves every attribute type;
/// Policies carries the §5.2 concatenated index on (Activity, Resource).
///
/// Requirement retrieval has two paths: the compiled tables (default)
/// and, with compiled tables off, the indexed Filter-first plan — the
/// reference the compiled tables are tested against. The paper's other
/// strategies live in paper_retrieval.h.
///
/// Thread safety and caching: retrieval takes a shared lock, mutation an
/// exclusive one, so concurrent read-only retrievals never serialize on
/// each other. Every mutation — and every hierarchy edit in the backing
/// OrgModel — bumps `epoch()`. The only derivation the store caches is
/// the compiled table per (resource, activity), stamped with the epoch
/// it was built at and dropped by the first probe at a newer one;
/// qualification and substitution retrieval read the relations on every
/// call. Whole enforcements are memoized above the store, in
/// PolicyManager. Lock order: mu_ before the compiled cache's mutex.
class PolicyStore {
 public:
  explicit PolicyStore(const org::OrgModel* org);

  PolicyStore(const PolicyStore&) = delete;
  PolicyStore& operator=(const PolicyStore&) = delete;

  // ---- Definition ---------------------------------------------------------

  /// Adds a parsed policy; returns the GroupID assigned to it.
  Result<int64_t> AddPolicy(const ParsedPolicy& policy);

  Result<int64_t> AddQualification(const QualificationPolicy& p);
  Result<int64_t> AddRequirement(const RequirementPolicy& p);
  Result<int64_t> AddSubstitution(const SubstitutionPolicy& p);

  /// Parses and adds every ';'-separated statement in `pl_text`.
  Status AddPolicyText(std::string_view pl_text);

  // ---- Retrieval ----------------------------------------------------------

  /// §4.1: the sub-types of `resource` (including itself) qualified — by
  /// some qualification policy, under the CWA — to carry out `activity`.
  /// The returned order follows the hierarchy's preorder.
  Result<std::vector<std::string>> QualifiedSubtypes(
      const std::string& resource, const std::string& activity) const;

  /// True if (resource, activity) is covered by some qualification
  /// policy through inheritance.
  Result<bool> IsQualified(const std::string& resource,
                           const std::string& activity) const;

  /// §4.2 / Figures 13–16: requirement policies applicable to a query
  /// for `resource`, `activity` with the given activity bindings.
  /// Results are sorted by PID.
  Result<std::vector<RelevantRequirement>> RelevantRequirements(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;

  /// §4.3: substitution policies applicable to a query for `resource`
  /// (whose Where clause is `query_where`, used for the resource-range
  /// intersection test) and `activity` with bindings `spec`.
  Result<std::vector<RelevantSubstitution>> RelevantSubstitutions(
      const std::string& resource, const rel::Expr* query_where,
      const std::string& activity, const rel::ParamMap& spec) const;

  // ---- Consultation and maintenance (Figure 1: the PL interface also
  // lets one "consult existing" policies) --------------------------------

  /// A stored qualification policy with its PID.
  struct StoredQualification {
    int64_t pid = 0;
    QualificationPolicy policy;
  };

  /// A stored requirement/substitution policy group, reassembled from
  /// its DNF rows: one rendered interval range per stored disjunct.
  struct StoredPolicyGroup {
    int64_t group = 0;
    std::vector<int64_t> pids;
    std::string resource;             // Substituted resource for
                                      // substitution policies.
    std::string activity;
    std::string where_clause;         // Requirement Where (may be "").
    std::string substituting_resource;  // Substitution policies only.
    std::string substituting_where;     // Substitution policies only.
    std::vector<std::string> ranges;  // RangeToString per disjunct.
    /// The decoded interval map per disjunct (same order as `ranges`);
    /// feeds DumpPl's reconstruction of the With clause.
    std::vector<ConjunctiveRange> range_data;
  };

  /// Why a requirement group did or did not apply to a query — the
  /// explainability counterpart of RelevantRequirements (same §4.2
  /// conditions, but every group is reported with its verdict).
  struct RequirementDiagnosis {
    enum class Verdict {
      kApplied,
      kResourceMismatch,  // Policy resource is not a super-type.
      kActivityMismatch,  // Policy activity is not a super-type.
      kRangeMismatch,     // Specification outside every disjunct's range.
    };
    int64_t group = 0;
    std::string resource;
    std::string activity;
    std::string where_clause;
    Verdict verdict = Verdict::kApplied;
    std::string detail;
  };
  Result<std::vector<RequirementDiagnosis>> DiagnoseRequirements(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;

  /// Why a substitution group did or did not apply (§4.3's four
  /// conditions, each with its own verdict).
  struct SubstitutionDiagnosis {
    enum class Verdict {
      kApplied,
      kResourceUnrelated,      // No common sub-type with the query's type.
      kResourceRangeDisjoint,  // Query range ∩ substituted range = ∅.
      kActivityMismatch,
      kRangeMismatch,
    };
    int64_t group = 0;
    std::string substituted_resource;
    std::string substituting_resource;
    std::string activity;
    Verdict verdict = Verdict::kApplied;
    std::string detail;
  };
  Result<std::vector<SubstitutionDiagnosis>> DiagnoseSubstitutions(
      const std::string& resource, const rel::Expr* query_where,
      const std::string& activity, const rel::ParamMap& spec) const;

  std::vector<StoredQualification> ListQualifications() const;
  Result<std::vector<StoredPolicyGroup>> ListRequirements() const;
  Result<std::vector<StoredPolicyGroup>> ListSubstitutions() const;

  // ---- Persistence (src/store snapshots) ---------------------------------

  /// Raw relational image of the policy base: the exact rows of the five
  /// §5 relations plus the id counters and the store-local epoch. Unlike
  /// DumpPl (which renumbers PIDs on reload), importing an image
  /// reproduces the store bit-for-bit — PIDs, groups and epoch included —
  /// which is what crash recovery needs to be indistinguishable from
  /// never having crashed.
  using Image = PolicyImage;

  Image ExportImage() const;

  /// Replaces the entire policy base with `image` (rows are re-validated
  /// against the table schemas, so a corrupted snapshot fails cleanly),
  /// restores the counters/epoch and drops every cache entry — recovered
  /// state starts cold.
  Status ImportImage(const Image& image);

  /// The store-local component of epoch() (the backing OrgModel
  /// contributes its hierarchy versions on top). Snapshots persist this
  /// so a recovered store resumes at the epoch it crashed at.
  uint64_t local_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // ---- Lazy hydration (paged storage backend) ---------------------------

  /// Defers loading the policy relations: the store starts with empty
  /// tables plus the durable id counters/epoch, and pulls the full image
  /// from `source` on the first access that could observe policy rows.
  /// Reads whose activity fails the source's bloom probe are answered
  /// from the empty tables without hydrating — correct because the probe
  /// has no false negatives. Call before the store sees traffic.
  void AttachLazySource(std::shared_ptr<PolicyImageSource> source,
                        int64_t next_pid, int64_t next_group, uint64_t epoch);

  /// True when the in-memory relations are authoritative (no lazy
  /// source, or it has been loaded).
  bool hydrated() const {
    return source_ == nullptr || hydrated_.load(std::memory_order_acquire);
  }

  /// Forces hydration now (no-op without a lazy source). Callers that
  /// cannot tolerate a silently-empty view (checkpoint capture, full
  /// exports) invoke this first so I/O failures surface as a Status.
  Status EnsureHydrated() const;

  // ---- Incremental checkpointing (paged storage backend) ----------------

  /// Starts/stops accumulating per-row mutation deltas (insertions and
  /// deletions of relation rows) for incremental checkpoints.
  void set_delta_tracking(bool enabled);

  /// Drains the accumulated deltas since the previous call. When the
  /// log overflowed (or ImportImage replaced the base wholesale) the
  /// result is flagged and the caller must rewrite the full image.
  PendingPolicyDeltas TakePendingDeltas();

  /// Durable id counters (checkpoint metadata).
  int64_t next_pid() const;
  int64_t next_group() const;

  /// Removes a qualification policy by PID.
  Status RemoveQualification(int64_t pid);
  /// Removes every row (and its intervals) of a requirement group.
  Status RemoveRequirementGroup(int64_t group);
  /// Removes every row (and its intervals) of a substitution group.
  Status RemoveSubstitutionGroup(int64_t group);

  // ---- Introspection ------------------------------------------------------

  /// The enforcement epoch: bumped by every policy mutation and every
  /// hierarchy edit of the backing OrgModel. All enforcement caches tag
  /// entries with the epoch they were computed at; an entry from an
  /// older epoch is never served.
  uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire) + org_->hierarchy_version();
  }

  /// Enables/disables the prepared-enforcement memo of every
  /// PolicyManager over this store (default on); the store itself only
  /// reads the switch out. Disabling is the ablation baseline for
  /// bench_cache and the reference world of the stack benchmark; it does
  /// not clear existing entries (re-enabling may hit them if the versions
  /// still match).
  void set_cache_enabled(bool enabled) {
    cache_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool cache_enabled() const {
    return cache_enabled_.load(std::memory_order_relaxed);
  }

  /// Enables/disables the compiled policy tables (default on): requirement
  /// retrieval probes a flat per-attribute interval table built lazily
  /// per (resource, activity) and cached until the epoch moves. Disabling
  /// selects the uncached indexed Filter-first plan, the reference the
  /// compiled tables are tested and benched against.
  void set_compiled_enabled(bool enabled) {
    compiled_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool compiled_enabled() const {
    return compiled_enabled_.load(std::memory_order_relaxed);
  }

  /// Records a rewritten-query LRU probe in this store's counters (the
  /// LRU itself lives in PolicyManager; stats are centralized here).
  void NoteRewriteLookup(CacheLookup outcome) const;

  /// Mirrors the StoreStats counters into `registry` (counter family
  /// `wfrm_store_cache_lookups_total{cache,outcome}` plus
  /// `wfrm_store_retrievals_total`), covering the compiled tables
  /// (`cache="retrieval"`) and the prepared-request memo (`"rewrite"`).
  /// Instrument pointers are resolved once here, so the per-probe cost
  /// is one relaxed atomic add. Call before the store sees concurrent
  /// traffic; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  size_t num_qualification_rows() const {
    return RowCount(relations::kQualifications);
  }
  size_t num_requirement_rows() const { return RowCount(relations::kPolicies); }
  size_t num_requirement_interval_rows() const {
    return RowCount(relations::kFilter);
  }
  size_t num_substitution_rows() const {
    return RowCount(relations::kSubstPolicies);
  }

  const rel::Database& db() const { return db_; }
  const org::OrgModel& org() const { return *org_; }

  const StoreStats& stats() const { return stats_; }
  /// stats().Snapshot() with the current enforcement epoch stamped in:
  /// the per-shard view a router or dashboard diffs to verify epoch
  /// isolation (an unrelated shard's snapshot keeps both its epoch and
  /// its hit counters).
  StoreStatsSnapshot StatsSnapshot() const {
    StoreStatsSnapshot s = stats_.Snapshot();
    s.epoch = epoch();
    return s;
  }
  void ResetStats() { stats_.Reset(); }

 private:
  Status ValidateRangeClause(const std::string& activity,
                             const rel::Expr* with) const;
  Status ValidateResourceRangeClause(const std::string& resource,
                                     const rel::Expr* clause) const;
  Status ValidateRequirementWhere(const std::string& resource,
                                  const std::string& activity,
                                  const rel::Expr* where) const;

  /// Inserts DNF rows for (activity, resource, with) into `policy_table`
  /// + `filter_table` with shared group id; extra columns are appended
  /// to each policy row. Attribute names in the With clause are stored
  /// under their canonical (declared) spelling. Caller holds mu_
  /// exclusively.
  Result<int64_t> InsertDecomposed(const std::string& policy_table,
                                   const std::string& filter_table,
                                   const std::string& activity,
                                   const std::string& resource,
                                   const rel::Expr* with,
                                   std::vector<rel::Value> extra_columns);

  // The following helpers assume mu_ is held (shared suffices unless
  // noted) — they are the pre-concurrency retrieval bodies.

  Result<std::vector<std::string>> QualifiedSubtypesLocked(
      const std::string& resource, const std::string& activity) const;
  /// The indexed Filter-first plan (compiled tables off).
  Result<std::vector<RelevantRequirement>> RelevantRequirementsFilterFirst(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;
  /// Compiled fast path (compiled_enabled): probe the flat interval
  /// table for (resource, activity), building it under the shared lock
  /// when the cache has none at the current epoch. Takes mu_ itself.
  Result<std::vector<RelevantRequirement>> RelevantRequirementsCompiled(
      const std::string& resource, const std::string& activity,
      const rel::ParamMap& spec) const;
  /// Lowers the candidate policies for (resource, activity) into a
  /// CompiledPolicyTable stamped with `epoch`. Caller holds mu_ (shared
  /// suffices).
  Result<std::shared_ptr<const CompiledPolicyTable>> BuildCompiledLocked(
      const std::string& resource, const std::string& activity,
      uint64_t epoch) const;
  Result<std::vector<RelevantSubstitution>> RelevantSubstitutionsLocked(
      const std::string& resource, const rel::Expr* query_where,
      const std::string& activity, const rel::ParamMap& spec) const;
  Result<std::vector<StoredPolicyGroup>> ListGroupsLocked(
      const std::string& policy_table, const std::string& filter_table,
      bool substitution) const;
  /// Removes a requirement or substitution group from its table pair.
  Status RemoveGroup(const char* policy_table, const char* filter_table,
                     int64_t group);
  /// Live rows of one relation (hydrating first, best effort).
  size_t RowCount(const char* table) const;

  /// Marks a completed mutation: bumps the epoch so every cached
  /// derivation from before it is invalidated. Caller holds mu_.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  /// Hydration gate for an activity-scoped read: hydrates unless the
  /// source's bloom filter proves no stored row involves any ancestor
  /// of `activity`. No-op when already hydrated.
  Status EnsureHydratedForActivity(const std::string& activity) const;
  /// Loads the image from source_ under the exclusive lock (idempotent).
  Status HydrateNow();
  /// ImportImage body; caller holds mu_ exclusively.
  Status ImportImageLocked(const Image& image);
  /// Appends a delta when tracking is on. Caller holds mu_ exclusively.
  void RecordDelta(std::string_view table, bool deleted, const rel::Row& row);

  /// Resolved metric instruments (null when no registry is attached).
  struct RetrievalMetrics {
    obs::Counter* retrievals = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* stale = nullptr;
    obs::Counter* rewrite_hits = nullptr;
    obs::Counter* rewrite_misses = nullptr;
    obs::Counter* rewrite_stale = nullptr;
    obs::Counter* compiled_builds = nullptr;
    obs::Counter* compiled_probes = nullptr;
  };

  /// One retrieval entered the store (stats + optional metrics mirror).
  void NoteRetrieval() const {
    ++stats_.retrievals;
    if (metrics_.retrievals != nullptr) metrics_.retrievals->Increment();
  }
  /// One compiled-table lookup.
  void NoteCompiledLookup(CacheLookup outcome) const {
    std::atomic<uint64_t>* stat = &stats_.cache_misses;
    obs::Counter* metric = metrics_.misses;
    if (outcome == CacheLookup::kHit) {
      stat = &stats_.cache_hits;
      metric = metrics_.hits;
    } else if (outcome == CacheLookup::kStale) {
      stat = &stats_.cache_invalidations;
      metric = metrics_.stale;
    }
    ++*stat;
    if (metric != nullptr) metric->Increment();
  }
  void NoteWork(const relations::ScanWork& work) const {
    stats_.candidate_rows += work.candidate_rows;
    stats_.interval_rows += work.interval_rows;
  }
  void NoteCompiledBuild() const {
    ++stats_.compiled_builds;
    if (metrics_.compiled_builds != nullptr) {
      metrics_.compiled_builds->Increment();
    }
  }
  void NoteCompiledProbe() const {
    ++stats_.compiled_probes;
    if (metrics_.compiled_probes != nullptr) {
      metrics_.compiled_probes->Increment();
    }
  }

  const org::OrgModel* org_;
  rel::Database db_;
  int64_t next_pid_ = 100;  // The paper's examples start at PID 100.
  int64_t next_group_ = 1;
  mutable StoreStats stats_;
  RetrievalMetrics metrics_;

  /// Guards db_, next_pid_, next_group_: shared for retrieval, exclusive
  /// for mutation.
  mutable std::shared_mutex mu_;
  /// Store-local component of epoch() (org_ contributes hierarchy
  /// versions).
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> cache_enabled_{true};
  std::atomic<bool> compiled_enabled_{true};
  /// Compiled flat interval tables keyed by (resource, activity), each
  /// served only at the epoch it was built at; entries are immutable and
  /// shared, so a probe holds no store lock.
  static constexpr size_t kCompiledTableCapacity = 8192;
  mutable LruCache<CompiledPolicyTable> compiled_cache_{
      kCompiledTableCapacity};

  /// Lazy hydration: durable backing and whether the in-memory tables
  /// are authoritative yet. hydrated_ defaults true (no lazy source).
  std::shared_ptr<PolicyImageSource> source_;
  std::atomic<bool> hydrated_{true};
  /// Incremental-checkpoint delta log. Guarded by mu_.
  bool delta_tracking_ = false;
  bool deltas_overflowed_ = false;
  std::vector<PolicyRowDelta> pending_deltas_;
};

}  // namespace wfrm::policy

#endif  // WFRM_POLICY_POLICY_STORE_H_
