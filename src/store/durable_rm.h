#ifndef WFRM_STORE_DURABLE_RM_H_
#define WFRM_STORE_DURABLE_RM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/resource_manager.h"
#include "obs/metrics.h"
#include "org/org_model.h"
#include "policy/policy_store.h"
#include "store/home_lock.h"
#include "store/page_store.h"
#include "store/record.h"
#include "store/wal.h"

namespace wfrm::store {

/// Crash-injection seam for Checkpoint(): stop after the named stage and
/// return, leaving the directory exactly as a crash at that instant
/// would. Tests reopen the store and verify recovery; production always
/// uses kNone.
enum class CheckpointCrashPoint {
  kNone,
  /// Dirty pages flushed to pages.db, meta slot not written: recovery
  /// must come up at the previous generation and replay the full WAL.
  kBeforeMetaCommit,
  /// Meta slot committed, WAL not yet truncated: recovery must skip the
  /// WAL records the committed pages already contain by sequence number
  /// instead of applying them twice.
  kBeforeWalTruncate,
};

struct DurableOptions {
  /// Page size / buffer pool of pages.db.
  PagerOptions pager;
  FsyncMode fsync_mode = FsyncMode::kInterval;
  /// kInterval: fsync the WAL every this many appends.
  size_t fsync_interval_records = 64;
  /// Automatic checkpoint every this many WAL records; 0 = only when
  /// Checkpoint() is called.
  size_t snapshot_every_records = 0;
  CheckpointCrashPoint crash_point = CheckpointCrashPoint::kNone;
  /// ReapExpired() journals and reclaims expired leases in batches of at
  /// most this many, re-taking the lease-table lock between batches, so
  /// ten thousand leases expiring at once never pin the table (blocking
  /// every Acquire/Release) for one giant critical section. 0 =
  /// unbatched (the old behaviour).
  size_t reap_batch_limit = 1024;
  /// Passed through to the recovered ResourceManager (clock, lease
  /// duration, allocation strategy, metrics, ...). When `metrics` is
  /// set the policy store is attached to the same registry and the
  /// WAL/checkpoint/replay instruments are registered there too.
  core::ResourceManagerOptions rm_options;
};

/// What Open() did to get back to the pre-crash state.
struct RecoveryInfo {
  /// pages.db held a checkpointed base (or a migrated legacy image).
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;
  size_t wal_records_replayed = 0;
  /// Records already covered by pages.db (seq <= snapshot_seq) — a
  /// crash between the meta commit and WAL truncation leaves these.
  size_t wal_records_skipped = 0;
  bool torn_tail = false;
  int64_t replay_micros = 0;
  /// A legacy snapshot.dat was folded into pages.db.
  bool migrated_legacy = false;
  /// Orphaned `*.tmp` files (crashed mid-commit) removed at open.
  size_t tmp_files_reaped = 0;
};

/// The durable shell around the in-memory resource manager stack: an
/// OrgModel + PolicyStore + ResourceManager whose every mutation is
/// journaled to an append-only WAL, checkpointed into the paged B+tree
/// file pages.db, and reconstructed by Open() after a crash (DESIGN.md
/// §10, §15).
///
/// Journaling is redo-only. Text and remove operations journal BEFORE
/// apply: replay feeds the identical statement to the identical
/// deterministic engine, so even a partially-applied script reproduces
/// exactly (replay ignores apply errors for the same reason). Lease
/// grants (acquire, renew) journal AFTER apply, because their records
/// carry concrete outcomes (resource, id, deadline) rather than the RQL
/// that produced them — recovery never re-runs enforcement against a
/// policy base that may differ mid-replay; a failed append rolls the
/// grant back. Lease releases (and reaps) journal BEFORE apply — a
/// release of a concrete lease replays deterministically, and
/// journaling second would let a failed append leave a release applied
/// in memory that replay resurrects. Either way the invariant is
/// state ⊆ journal: replay never shows a grant freed that memory holds,
/// nor holds one the caller was told was released.
///
/// Persisted lease deadlines are *remaining lifetimes*: the manager's
/// clock is monotonic with an arbitrary epoch (for SystemClock,
/// microseconds since boot), so an absolute deadline journaled by one
/// process is meaningless to the process that replays it after a
/// restart. Recovery re-bases each remaining lifetime onto the
/// recovering clock, giving a lease exactly the time it had left when
/// its record was written.
///
/// Journaled mutations are serialized by `mutate_mu_` (journal order
/// must equal apply order); reads delegate to the underlying objects,
/// which are internally synchronized. Acquire is a read followed by a
/// mutation, and locks only the mutation: it enforces the request with
/// no home lock held, then, under `mutate_mu_`, re-checks liveness,
/// writability and hydration, compares the home's *answer generation*
/// and claims and journals the grant. Every mutation that can change an
/// answer (RDL, policy add/remove, replicated records, world installs)
/// bumps the generation after it applies; when it moved between the two
/// phases the request is enforced again under the lock, so a grant
/// always answers the base in force at its journal position. The
/// catch-up install replaces the in-memory world and holds `world_mu_`
/// exclusively; the unlocked enforcement holds it shared. Lock order:
/// `world_mu_`, then `mutate_mu_` (DESIGN.md §8, §10).
class DurableResourceManager {
 public:
  /// Opens (or creates) the durable home `dir`, reconstructing state
  /// from the `dir`/pages.db checkpoint plus the `dir`/wal.log tail. The
  /// org model, leases and policy base stay on disk until first use, so
  /// Open() costs O(WAL tail), not O(dataset). A torn final WAL record
  /// is cut off. A legacy `dir`/snapshot.dat is folded into pages.db
  /// and removed; a corrupt one is an error.
  ///
  /// A durable home is stamped with a `store.meta` marker (magic +
  /// format version). A directory holding store files but no marker is
  /// adopted only when its contents decode as ours; a foreign or
  /// half-written directory (bad magic, mismatched version, garbage
  /// log) fails with a clear one-line error and no partial state.
  static Result<std::unique_ptr<DurableResourceManager>> Open(
      const std::string& dir, DurableOptions options = {});

  /// Captures a fresh durable home at `dir` from an existing in-memory
  /// world — the shell's `save` for a session that started volatile. It
  /// writes pages.db directly, so Open(dir) afterwards reconstructs this
  /// exact state with nothing to migrate.
  static Status SaveWorld(const std::string& dir, const org::OrgModel& org,
                          const policy::PolicyStore& store,
                          const core::ResourceManager& rm);

  ~DurableResourceManager();

  // ---- Journaled mutations ---------------------------------------------

  Status ExecuteRdl(std::string_view rdl_text);
  Status AddPolicyText(std::string_view pl_text);
  Status RemoveQualification(int64_t pid);
  Status RemoveRequirementGroup(int64_t group);
  Status RemoveSubstitutionGroup(int64_t group);

  Result<core::Lease> Acquire(std::string_view rql_text);
  /// Acquire under a request context: the enforcement pipeline checks
  /// the deadline/cancellation at its stage boundaries and fails typed.
  /// A grant that was journaled is always returned — deadlines bound
  /// waiting, they never undo durable side effects.
  Result<core::Lease> Acquire(std::string_view rql_text,
                              const RequestContext& ctx);
  Result<core::Lease> AllocateLease(const org::ResourceRef& ref);
  Status Release(const core::Lease& lease);
  /// Releases whatever lease currently holds `ref`.
  Status Release(const org::ResourceRef& ref);
  Result<core::Lease> RenewLease(const core::Lease& lease);
  size_t ReapExpired();

  // ---- Reads --------------------------------------------------------------

  /// Enforces `rql_text` against this home without claiming anything:
  /// the routed read path. The world lock is held shared for the call,
  /// so a catch-up install cannot free the world (and its prepared
  /// entries) under the read; the home lock is not taken.
  Result<core::QueryOutcome> Enforce(std::string_view rql_text,
                                     const RequestContext* ctx = nullptr);
  /// ResourceManager::SubmitBatch under the same shared world lock.
  std::vector<Result<core::QueryOutcome>> EnforceBatch(
      const std::vector<std::string>& rql_texts, size_t num_workers,
      const RequestContext* ctx = nullptr);

  // ---- Checkpointing ----------------------------------------------------

  /// Commits everything since the last checkpoint into pages.db (policy
  /// deltas, the RDL text if the org changed, dirty leases, one meta
  /// flip) and truncates the WAL. Allowed while WAL-degraded: the
  /// truncation clears the writer's broken latch, so a successful
  /// checkpoint is also the repair path out of that state.
  Status Checkpoint();

  // ---- Health / degraded mode -------------------------------------------

  /// True when the store refuses mutations: the WAL writer latched
  /// broken, an external reason was set (replication partition), or the
  /// node is a standby replica. Enforcement reads keep serving in every
  /// state; mutations fail fast with StatusCode::kDegraded.
  bool degraded() const;
  /// Human-readable reason; empty when healthy.
  std::string degraded_reason() const;
  /// False once the WAL writer latched after an unrecoverable write
  /// failure (surfaced immediately via the wfrm_store_wal_broken gauge
  /// and shell `status`, not just on the next mutation).
  bool wal_healthy() const;
  /// Marks the store degraded for an external reason — the replication
  /// shipper uses this when the follower link partitions.
  void EnterDegraded(std::string reason);
  /// Clears the external reason. The WAL-latch reason clears itself on
  /// a successful Checkpoint(); standby clears via ExitStandby().
  void ExitDegraded();

  /// Standby replicas accept state only through ApplyReplicated /
  /// InstallPagedImage; direct mutations fail with kDegraded so a
  /// follower can never fork from its primary. Promotion flips this
  /// off.
  void EnterStandby();
  void ExitStandby();
  bool standby() const;

  // ---- Replication hooks -------------------------------------------------

  /// Catch-up image for a far-behind follower: checkpoints, then returns
  /// the raw pages.db bytes (the follower installs them with
  /// InstallPagedImage). `last_seq` is captured atomically with the
  /// bytes — the shipper resumes WAL streaming right after it.
  struct CatchupImage {
    std::string bytes;
    uint64_t last_seq = 0;
  };
  Result<CatchupImage> CaptureCatchupImage();

  /// Follower catch-up from a shipped pages.db image: the bytes are
  /// committed over pages.db (tmp + rename + directory fsync) while the
  /// old engine still holds the old file, then the in-memory world is
  /// rebuilt from the new file and the WAL truncated, so a crash
  /// mid-install recovers to either the old or the shipped state. A
  /// failed tmp write or rename leaves pages.db, the engine and the
  /// world as they were. A failed directory fsync comes after the
  /// rename: the world follows the shipped file, the WAL is kept (replay
  /// skips its records by seq) and the error is returned, so the
  /// caller retries the install.
  Status InstallPagedImage(std::string_view bytes);

  /// Applies one record shipped from the primary: journals it locally
  /// under the primary's own sequence number (the follower's log stays
  /// byte-compatible with the primary's history) and feeds it through
  /// the same deterministic replay as recovery. The record's seq must
  /// be exactly last_seq()+1 — gap detection is the caller's job
  /// (ReplicaApplier nacks and the shipper rewinds).
  Status ApplyReplicated(const Record& record);

  /// Canonical state fingerprint (see store/fingerprint.h), captured
  /// under the mutation lock so it never observes a half-applied
  /// record. Replication divergence checks pass
  /// include_deadlines=false: two nodes re-base lease lifetimes at
  /// different instants, so deadlines legitimately differ.
  std::string StateFingerprint(bool include_deadlines = true) const;

  // ---- Access -----------------------------------------------------------

  // The org model and lease table hydrate lazily; handing out a
  // reference is a use, so each accessor hydrates first
  // (best effort — the signatures cannot report a hydration I/O
  // failure; Status-returning paths call EnsureOrgHydrated themselves).
  org::OrgModel& org() {
    (void)EnsureOrgHydrated();
    return *org_;
  }
  policy::PolicyStore& store() {
    (void)EnsureOrgHydrated();
    return *store_;
  }
  core::ResourceManager& rm() {
    (void)EnsureOrgHydrated();
    return *rm_;
  }
  const core::ResourceManager& rm() const {
    (void)EnsureOrgHydrated();
    return *rm_;
  }

  /// False while the org/lease base is still on disk only.
  bool org_hydrated() const {
    return org_hydrated_.load(std::memory_order_acquire);
  }

  /// This store's enforcement epoch (policy-store mutations plus org
  /// hierarchy versions). Under sharding every shard owns its own store
  /// and therefore its own epoch: one tenant's mutation burst bumps
  /// only its shard's epoch, leaving every other shard's enforcement
  /// caches warm (DESIGN.md §12). The router exports these per shard.
  uint64_t mutation_epoch() const { return store_->epoch(); }

  const RecoveryInfo& recovery_info() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  /// pages.db engine stats (pager I/O, bloom size).
  PageStoreStats page_stats() const { return pages_->stats(); }
  uint64_t last_seq() const {
    std::lock_guard<std::mutex> lock(mutate_mu_);
    return seq_;
  }
  uint64_t wal_bytes() const {
    std::lock_guard<std::mutex> lock(mutate_mu_);
    return wal_.bytes_written();
  }

  /// Test-only: makes the next journal append fail after `partial_bytes`
  /// of its frame reach the file (see WalWriter::TestFailNextAppend) —
  /// exercises the journal-failure rollback paths.
  void TestFailNextJournal(size_t partial_bytes) {
    std::lock_guard<std::mutex> lock(mutate_mu_);
    wal_.TestFailNextAppend(partial_bytes);
  }

  /// Test-only: runs `hook` inside every Acquire between its unlocked
  /// enforcement and its locked claim, with no lock held — the window a
  /// concurrent mutation can land in. Set or clear (empty function) it
  /// only while no Acquire is in flight.
  void TestSetBetweenAcquirePhases(std::function<void()> hook) {
    between_acquire_phases_ = std::move(hook);
  }

 private:
  DurableResourceManager(std::string dir, DurableOptions options);

  /// store.meta check: validates the marker, or adopts a marker-less
  /// directory whose contents decode as ours; rejects foreign or
  /// half-written stores with a one-line error.
  Status ValidateHome();
  /// (Re)creates the empty in-memory world (org + store + rm), rewiring
  /// metrics, and bumps the answer generation. Used at construction and
  /// by InstallPagedImage, which holds world_mu_ exclusively.
  void ResetWorldLocked();
  /// kDegraded unless this store currently accepts direct mutations.
  Status WritableLocked() const;
  /// Pushes the wal-broken / degraded gauges. Caller holds mutate_mu_.
  void UpdateHealthGaugesLocked();

  Result<core::Lease> AcquireImpl(std::string_view rql_text,
                                  const RequestContext* ctx);
  /// Acquire's first phase: enforces `rql_text` with no home lock and
  /// reports the answer generation it enforced under.
  Result<core::QueryOutcome> EnforceUnlocked(std::string_view rql_text,
                                             const RequestContext* ctx,
                                             uint64_t* generation);

  /// Opens pages.db (folding a legacy snapshot.dat into it first),
  /// attaches its base lazily and replays the WAL tail.
  Status Recover();
  /// Rebuilds the in-memory world from the already-open pages_ file;
  /// shared by Recover and InstallPagedImage.
  Status LoadWorldFromPagesLocked();
  /// Lazy org/lease hydration: loads the checkpointed RDL text and the
  /// lease table from pages_, then replays any buffered WAL-tail RDL
  /// records in journal order. No-op once hydrated; a hydrated home
  /// returns without taking mutate_mu_. const because reads trigger it;
  /// only the
  /// `mutable` hydration state changes.
  Status EnsureOrgHydrated() const;
  Status EnsureOrgHydratedLocked() const;
  /// Removes orphaned `*.tmp` files left by a file commit that crashed
  /// before its rename. Safe because the home lock is already held — no
  /// live writer can own them.
  void ReapOrphanTmpFiles();
  /// Applies one replayed WAL record to the in-memory state.
  void ApplyRecord(const Record& record);
  /// Forwards new WalWriter syncs to the wal_syncs counter.
  void ReportSyncsLocked();
  /// Journals one record for a mutation that just succeeded; assigns
  /// the next sequence number. Caller holds mutate_mu_.
  Status JournalLocked(Record record);
  /// Marks every answer enforced before now as possibly stale. Called
  /// under mutate_mu_ after a mutation that can change an answer has
  /// applied.
  void BumpGenerationLocked() {
    generation_.fetch_add(1, std::memory_order_release);
  }
  /// Auto-checkpoint trigger; called after a journaled mutation has
  /// been applied (never between journal and apply — the checkpoint
  /// would claim a seq whose effect it lacks, and truncation would lose
  /// it).
  Status MaybeCheckpointLocked();
  /// Incremental checkpoint: policy deltas (or a full image rewrite
  /// when the delta buffer overflowed), the RDL text if the org
  /// changed, re-resolved dirty leases, then one pager commit.
  Status CheckpointLocked();

  std::string WalPath() const { return dir_ + "/wal.log"; }
  /// Legacy import only: Open() folds it into pages.db and removes it.
  std::string SnapshotPath() const { return dir_ + "/snapshot.dat"; }
  std::string PagesPath() const { return dir_ + "/pages.db"; }
  std::string MetaPath() const { return dir_ + "/store.meta"; }

  std::string dir_;
  DurableOptions options_;
  HomeLock home_lock_;
  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<policy::PolicyStore> store_;
  std::unique_ptr<core::ResourceManager> rm_;

  /// The pages.db engine; never null once Open() returns. shared_ptr
  /// because the PolicyStore holds it as its lazy PolicyImageSource.
  std::shared_ptr<PageStore> pages_;
  /// Lease ids mutated since the last checkpoint; each is
  /// re-resolved against the live table at checkpoint time (present →
  /// upsert with fresh remaining lifetime, gone → delete).
  std::unordered_set<uint64_t> dirty_lease_ids_;
  /// The org model changed since the last checkpoint (RDL ran);
  /// forces an RDL text rewrite in the sys tree.
  bool org_dirty_ = false;
  /// False while the org/lease base is still disk-only. Written
  /// under mutate_mu_ (set last, with release order, once hydration
  /// completes); read lock-free by the EnsureOrgHydrated fast path.
  mutable std::atomic<bool> org_hydrated_{true};
  /// WAL-tail RDL records replayed before hydration: applying them
  /// needs the checkpointed base underneath, so they wait for it in
  /// journal order instead of forcing an O(dataset) load at Open().
  mutable std::vector<std::string> pending_org_rdl_;

  /// Held shared by Acquire's unlocked enforcement and exclusively by
  /// InstallPagedImage, which replaces org_, store_ and rm_. Never
  /// waited for while mutate_mu_ is held.
  std::shared_mutex world_mu_;
  mutable std::mutex mutate_mu_;
  /// The answer generation: bumped (under mutate_mu_, after apply) by
  /// every mutation that can change what an enforced request answers.
  /// Lease records do not bump it — Claim re-checks held and down
  /// resources itself. Not the store epoch: that ignores relationship
  /// and instance inserts, which a Where subquery can read.
  std::atomic<uint64_t> generation_{0};
  WalWriter wal_;
  uint64_t seq_ = 0;
  size_t records_since_checkpoint_ = 0;
  uint64_t syncs_reported_ = 0;
  RecoveryInfo recovery_;
  /// Home predates store.meta; stamp it after a successful recovery.
  bool needs_meta_ = false;
  /// External degraded reason (replication partition, operator action);
  /// empty = none. The WAL-latch reason is derived from wal_.healthy().
  std::string external_degraded_reason_;
  bool standby_ = false;
  std::function<void()> between_acquire_phases_;

  /// Null when no registry is configured.
  struct Instruments {
    obs::Counter* wal_appends = nullptr;
    obs::Counter* wal_bytes = nullptr;
    obs::Counter* wal_syncs = nullptr;
    obs::Counter* wal_truncations = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* replayed_records = nullptr;
    obs::Histogram* replay_latency = nullptr;
    obs::Gauge* wal_broken = nullptr;
    obs::Gauge* degraded = nullptr;
  };
  Instruments metrics_;
};

}  // namespace wfrm::store

#endif  // WFRM_STORE_DURABLE_RM_H_
