#include "store/durable_rm.h"

#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <utility>

#include "org/rdl_dump.h"
#include "org/rdl_parser.h"
#include "store/fingerprint.h"
#include "store/snapshot.h"

namespace wfrm::store {

namespace {

/// Durable-home marker. The magic identifies the directory as ours (a
/// foreign directory must never be "recovered" — the WAL torn-tail
/// logic would happily truncate someone else's file); the version gates
/// cross-build format skew with a clear error instead of a decode
/// failure deep in replay.
constexpr char kStoreMetaMagic[] = "wfrm-store-v1";
constexpr uint32_t kStoreFormatVersion = 1;

std::string EncodeStoreMeta() {
  std::string payload;
  AppendString(&payload, kStoreMetaMagic);
  AppendU32(&payload, kStoreFormatVersion);
  std::string bytes;
  AppendWalFrame(&bytes, payload);
  return bytes;
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Persisted lease deadlines are remaining lifetimes, not timestamps:
// the manager's clock is monotonic with an arbitrary epoch (for
// SystemClock, microseconds since boot), so an absolute deadline
// journaled by one process would be nonsense to the process replaying
// it after a restart — a recovered lease could look live for hours or
// expired on arrival. ToDurableLease subtracts "now" at journal or
// checkpoint time; FromDurableLease re-bases onto the recovering clock,
// so a restored lease gets exactly the lifetime it had left when its
// record was written. kNoExpiry passes through unchanged.
core::Lease ToDurableLease(core::Lease lease, int64_t now_micros) {
  if (lease.deadline_micros != core::Lease::kNoExpiry) {
    lease.deadline_micros -= now_micros;
  }
  return lease;
}

core::Lease FromDurableLease(core::Lease lease, int64_t now_micros) {
  if (lease.deadline_micros != core::Lease::kNoExpiry) {
    lease.deadline_micros += now_micros;
  }
  return lease;
}

Result<core::QueryOutcome> SubmitUnder(const core::ResourceManager& rm,
                                       std::string_view rql_text,
                                       const RequestContext* ctx) {
  return ctx != nullptr ? rm.Submit(rql_text, *ctx) : rm.Submit(rql_text);
}

/// Commits `data` into `pages` as one full generation: every tree
/// rewritten, the counters in the meta. Folds a legacy snapshot.dat into
/// pages.db at Open and writes SaveWorld's capture.
Status CommitImage(PageStore* pages, const SnapshotData& data) {
  WFRM_RETURN_NOT_OK(pages->RewritePolicyImage(data.policy_image));
  WFRM_RETURN_NOT_OK(pages->RewriteRdl(data.rdl_text));
  WFRM_RETURN_NOT_OK(pages->RewriteLeases(data.leases));
  PageStoreMeta meta;
  meta.last_seq = data.last_seq;
  meta.next_lease_id = data.next_lease_id;
  meta.next_pid = data.policy_image.next_pid;
  meta.next_group = data.policy_image.next_group;
  meta.epoch = data.policy_image.epoch;
  return pages->Commit(meta);
}

/// Identity of the file `path` names (0 when there is none). A rename
/// over `path` changes it whenever the replaced file is still open.
ino_t FileId(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

}  // namespace

DurableResourceManager::DurableResourceManager(std::string dir,
                                               DurableOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  obs::MetricsRegistry* reg = options_.rm_options.metrics;
  if (reg != nullptr) {
    metrics_.wal_appends = reg->GetCounter(
        "wfrm_store_wal_appends_total", {}, "WAL records appended.");
    metrics_.wal_bytes = reg->GetCounter("wfrm_store_wal_bytes_total", {},
                                         "WAL bytes written (framed).");
    metrics_.wal_syncs = reg->GetCounter("wfrm_store_wal_syncs_total", {},
                                         "WAL fsync calls issued.");
    metrics_.wal_truncations =
        reg->GetCounter("wfrm_store_wal_truncations_total", {},
                        "WAL truncations after successful checkpoints.");
    metrics_.snapshots = reg->GetCounter("wfrm_store_snapshots_total", {},
                                         "Checkpoints committed to pages.db.");
    metrics_.replayed_records =
        reg->GetCounter("wfrm_store_replayed_records_total", {},
                        "WAL records re-applied during recovery.");
    metrics_.replay_latency = reg->GetHistogram(
        "wfrm_store_replay_micros", obs::Histogram::LatencyBucketsMicros(), {},
        "Open() recovery time (pages.db attach + WAL replay) in "
        "microseconds.");
    metrics_.wal_broken = reg->GetGauge(
        "wfrm_store_wal_broken", {},
        "1 when the WAL writer has latched broken after a failed append; "
        "a successful checkpoint clears it.");
    metrics_.degraded = reg->GetGauge(
        "wfrm_store_degraded", {},
        "1 when the store refuses mutations (WAL broken, standby replica, "
        "or replication partition); reads keep serving.");
  }
  ResetWorldLocked();
}

void DurableResourceManager::ResetWorldLocked() {
  org_ = std::make_unique<org::OrgModel>();
  store_ = std::make_unique<policy::PolicyStore>(org_.get());
  obs::MetricsRegistry* reg = options_.rm_options.metrics;
  if (reg != nullptr) store_->set_metrics(reg);
  rm_ = std::make_unique<core::ResourceManager>(org_.get(), store_.get(),
                                                options_.rm_options);
  // A fresh world is fully resident until LoadWorldFromPagesLocked
  // defers it again.
  org_hydrated_.store(true, std::memory_order_release);
  pending_org_rdl_.clear();
  // Answers enforced against the replaced world are stale. The install
  // holds world_mu_ exclusively, so no unlocked enforcement overlaps the
  // swap: one that ran before it sees this bump at claim time.
  BumpGenerationLocked();
}

DurableResourceManager::~DurableResourceManager() = default;

Result<std::unique_ptr<DurableResourceManager>> DurableResourceManager::Open(
    const std::string& dir, DurableOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot create durable home " + dir + ": " +
                                  ec.message());
  }
  std::unique_ptr<DurableResourceManager> d(
      new DurableResourceManager(dir, std::move(options)));
  // The lock comes first: everything after it (tmp reaping, recovery,
  // WAL truncation) assumes no concurrent owner of the home.
  WFRM_ASSIGN_OR_RETURN(d->home_lock_, HomeLock::Acquire(dir));
  d->ReapOrphanTmpFiles();
  WFRM_RETURN_NOT_OK(d->ValidateHome());
  WFRM_RETURN_NOT_OK(d->Recover());
  if (d->needs_meta_) {
    // Stamp legacy homes only after recovery proved the contents ours.
    WFRM_RETURN_NOT_OK(WriteFileDurable(d->MetaPath(), EncodeStoreMeta()));
    d->needs_meta_ = false;
  }
  return d;
}

void DurableResourceManager::ReapOrphanTmpFiles() {
  // A `.tmp` in the home is pre-rename scratch from a durable-file
  // write that crashed before its commit point. We hold
  // the home lock, so no live writer can own one — reap them all.
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".tmp") {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) {
        ++recovery_.tmp_files_reaped;
      }
    }
  }
}

Status DurableResourceManager::ValidateHome() {
  Result<std::string> raw = ReadFileBytes(MetaPath());
  if (raw.ok()) {
    WalScan scan = ScanWalBuffer(*raw);
    std::string_view in;
    std::string magic;
    uint32_t version = 0;
    if (scan.torn_tail || scan.payloads.size() != 1 ||
        (in = scan.payloads.front(), !ReadString(&in, &magic))) {
      return Status::ExecutionError(dir_ +
                                    " is not a usable wfrm durable home: "
                                    "store.meta is damaged");
    }
    if (magic != kStoreMetaMagic) {
      return Status::ExecutionError(
          dir_ + " is not a wfrm durable home: store.meta has foreign magic");
    }
    if (!ReadU32(&in, &version) || version != kStoreFormatVersion) {
      return Status::ExecutionError(
          dir_ + " holds store format v" + std::to_string(version) +
          "; this build reads v" + std::to_string(kStoreFormatVersion));
    }
    return Status::OK();
  }
  if (raw.status().code() != StatusCode::kNotFound) return raw.status();

  // No marker. Adopt a pre-marker home only when its contents decode as
  // ours; anything else is a foreign or half-written directory, and
  // recovery must not touch it (torn-tail handling would truncate it).
  std::error_code ec;
  if (std::filesystem::exists(PagesPath(), ec)) {
    Result<std::string> head = ReadFileBytes(PagesPath());
    if (!head.ok() || !LooksLikePagesFile(*head)) {
      return Status::ExecutionError(
          dir_ + " is not a wfrm durable home: pages.db has foreign magic");
    }
  }
  const bool has_snapshot = std::filesystem::exists(SnapshotPath(), ec);
  uintmax_t wal_size = 0;
  if (std::filesystem::exists(WalPath(), ec)) {
    wal_size = std::filesystem::file_size(WalPath(), ec);
    if (ec) wal_size = 0;
  }
  if (has_snapshot) {
    Result<SnapshotData> snap = ReadSnapshot(SnapshotPath());
    if (!snap.ok()) {
      return Status::ExecutionError(dir_ + " is not a wfrm durable home: " +
                                    snap.status().message());
    }
  }
  if (wal_size > 0) {
    Result<WalScan> scan = ReadWal(WalPath());
    if (!scan.ok()) return scan.status();
    if (scan->payloads.empty() || !DecodeRecord(scan->payloads.front()).ok()) {
      return Status::ExecutionError(
          dir_ + " is not a wfrm durable home: wal.log is not a wfrm journal");
    }
  }
  needs_meta_ = true;
  return Status::OK();
}

Status DurableResourceManager::SaveWorld(const std::string& dir,
                                         const org::OrgModel& org,
                                         const policy::PolicyStore& store,
                                         const core::ResourceManager& rm) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot create durable home " + dir + ": " +
                                  ec.message());
  }
  // Hold the home lock for the write: SaveWorld into a home another
  // process has open would corrupt it under the owner's feet.
  WFRM_ASSIGN_OR_RETURN(HomeLock lock, HomeLock::Acquire(dir));
  SnapshotData data;
  WFRM_ASSIGN_OR_RETURN(data.rdl_text, org::DumpRdl(org));
  data.policy_image = store.ExportImage();
  const int64_t now = rm.clock().NowMicros();
  for (const core::Lease& lease : rm.ListLeases()) {
    data.leases.push_back(ToDurableLease(lease, now));
  }
  data.next_lease_id = rm.next_lease_id();
  data.last_seq = 0;
  {
    WFRM_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> pages,
                          PageStore::Open(dir + "/pages.db"));
    WFRM_RETURN_NOT_OK(CommitImage(pages.get(), data));
  }
  // A legacy snapshot.dat left in `dir` would fold over the capture at
  // the next Open.
  std::filesystem::remove(dir + "/snapshot.dat", ec);
  // Start with an empty log: pages.db is the whole history.
  WalWriter wal;
  WFRM_RETURN_NOT_OK(
      wal.Open(dir + "/wal.log", FsyncMode::kOff, 0, /*valid_bytes=*/0));
  WFRM_RETURN_NOT_OK(wal.Sync());
  return WriteFileDurable(dir + "/store.meta", EncodeStoreMeta());
}

// ---- Recovery ---------------------------------------------------------------

Status DurableResourceManager::Recover() {
  const int64_t start = NowMicros();
  WFRM_ASSIGN_OR_RETURN(std::shared_ptr<PageStore> pages,
                        PageStore::Open(PagesPath(), options_.pager));
  pages_ = std::move(pages);

  // Migration: a legacy snapshot.dat is folded into the page trees,
  // committed, then removed. Idempotent — a crash anywhere before the
  // unlink re-runs the whole fold on the next open, and WAL records are
  // skipped by seq either way.
  Result<SnapshotData> legacy = ReadSnapshot(SnapshotPath());
  if (legacy.ok()) {
    WFRM_RETURN_NOT_OK(CommitImage(pages_.get(), *legacy));
    std::error_code ec;
    std::filesystem::remove(SnapshotPath(), ec);
    recovery_.migrated_legacy = true;
  } else if (legacy.status().code() != StatusCode::kNotFound) {
    return legacy.status();
  }

  WFRM_RETURN_NOT_OK(LoadWorldFromPagesLocked());
  // A pre-existing pages.db that never saw a checkpoint and holds no
  // data contributed no state — the WAL rebuilds everything. A SaveWorld
  // capture or migrated legacy image (real state at seq 0) does count.
  recovery_.snapshot_loaded = pages_->meta().last_seq > 0 ||
                              pages_->has_state() ||
                              recovery_.migrated_legacy;
  recovery_.snapshot_seq = pages_->meta().last_seq;

  WFRM_ASSIGN_OR_RETURN(WalScan scan, ReadWal(WalPath()));
  uint64_t good_bytes = 0;
  for (const std::string& payload : scan.payloads) {
    Result<Record> record = DecodeRecord(payload);
    if (!record.ok()) {
      // A CRC-valid but undecodable record: version skew or silent
      // corruption. Cut history here, exactly like a torn tail.
      recovery_.torn_tail = true;
      break;
    }
    if (record->seq <= recovery_.snapshot_seq) {
      // Already inside pages.db — the crash hit between the meta commit
      // and WAL truncation.
      ++recovery_.wal_records_skipped;
    } else {
      // A non-RDL record needs the hydrated world underneath it (policy
      // text resolves org type names, lease ops need the allocation
      // table). Pure-RDL tails stay buffered, so recovery cost tracks
      // the tail, not the org.
      if (record->type != RecordType::kRdl) {
        WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
      }
      ApplyRecord(*record);
      seq_ = record->seq;
      ++recovery_.wal_records_replayed;
    }
    good_bytes += 8 + payload.size();
  }
  recovery_.torn_tail = recovery_.torn_tail || scan.torn_tail;

  // Reopen for appends, cutting off whatever tail was not replayable.
  WFRM_RETURN_NOT_OK(wal_.Open(WalPath(), options_.fsync_mode,
                               options_.fsync_interval_records,
                               static_cast<int64_t>(good_bytes)));

  recovery_.replay_micros = NowMicros() - start;
  if (metrics_.replayed_records != nullptr) {
    metrics_.replayed_records->Increment(recovery_.wal_records_replayed);
  }
  if (metrics_.replay_latency != nullptr) {
    metrics_.replay_latency->Observe(
        static_cast<double>(recovery_.replay_micros));
  }
  UpdateHealthGaugesLocked();
  return Status::OK();
}

Status DurableResourceManager::LoadWorldFromPagesLocked() {
  const PageStoreMeta meta = pages_->meta();
  // Nothing bulky loads eagerly: the policy base stays on disk behind
  // the bloom filter, and the org model + lease table hydrate together
  // on first use (EnsureOrgHydratedLocked). Open() pays only for the
  // meta slot and the WAL tail — O(dirty pages), not O(dataset).
  store_->AttachLazySource(pages_, meta.next_pid, meta.next_group, meta.epoch);
  // Track per-row deltas from here on: the WAL tail replayed by the
  // caller and every live mutation feed the next incremental checkpoint.
  store_->set_delta_tracking(true);
  rm_->AdvanceLeaseId(meta.next_lease_id);
  seq_ = meta.last_seq;
  org_hydrated_.store(false, std::memory_order_release);
  pending_org_rdl_.clear();
  org_dirty_ = false;
  dirty_lease_ids_.clear();
  return Status::OK();
}

Status DurableResourceManager::EnsureOrgHydrated() const {
  // Fast path: a resident world stays resident until an install replaces
  // it, so reads and Acquire's unlocked phase skip mutate_mu_.
  if (org_hydrated_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return EnsureOrgHydratedLocked();
}

Status DurableResourceManager::EnsureOrgHydratedLocked() const {
  if (org_hydrated_.load(std::memory_order_relaxed)) return Status::OK();
  // Replay order is preserved: the checkpointed base first (RDL text,
  // then the lease table, each lease re-based onto the live clock), then
  // the buffered WAL-tail RDL records in journal order. Tail statements
  // replay with ignored status, exactly as ApplyRecord would have — a
  // script that failed live fails identically here.
  WFRM_ASSIGN_OR_RETURN(std::string rdl, pages_->LoadRdl());
  if (!rdl.empty()) {
    WFRM_RETURN_NOT_OK(org::ExecuteRdl(rdl, org_.get()));
  }
  WFRM_ASSIGN_OR_RETURN(std::vector<core::Lease> leases, pages_->LoadLeases());
  const int64_t now = rm_->clock().NowMicros();
  for (const core::Lease& lease : leases) {
    WFRM_RETURN_NOT_OK(rm_->RestoreLease(FromDurableLease(lease, now)));
  }
  for (const std::string& text : pending_org_rdl_) {
    (void)org::ExecuteRdl(text, org_.get());
  }
  pending_org_rdl_.clear();
  org_hydrated_.store(true, std::memory_order_release);
  return Status::OK();
}

void DurableResourceManager::ApplyRecord(const Record& record) {
  // Replay reruns history faithfully: an operation that failed (or
  // partially applied — RDL scripts abort at the first bad statement)
  // when first journaled fails identically here, so its status is
  // deliberately ignored. The parsers return clean errors on any
  // malformed text, so a damaged record degrades to a no-op rather
  // than poisoning recovery.
  switch (record.type) {
    case RecordType::kRdl:
      if (org_hydrated_.load(std::memory_order_relaxed)) {
        (void)org::ExecuteRdl(record.text, org_.get());
      } else {
        // Unhydrated base: buffer the tail record; hydration replays it
        // in journal order on top of the checkpointed base.
        pending_org_rdl_.emplace_back(record.text);
      }
      org_dirty_ = true;
      break;
    case RecordType::kPl:
      (void)store_->AddPolicyText(record.text);
      break;
    case RecordType::kRemoveQualification:
      (void)store_->RemoveQualification(record.id);
      break;
    case RecordType::kRemoveRequirementGroup:
      (void)store_->RemoveRequirementGroup(record.id);
      break;
    case RecordType::kRemoveSubstitutionGroup:
      (void)store_->RemoveSubstitutionGroup(record.id);
      break;
    case RecordType::kLeaseAcquire:
    case RecordType::kLeaseRenew:
      (void)rm_->RestoreLease(
          FromDurableLease(record.lease, rm_->clock().NowMicros()));
      if (record.lease.id != 0) dirty_lease_ids_.insert(record.lease.id);
      break;
    case RecordType::kLeaseRelease:
      // Matched by resource + id; the lifetime field is irrelevant.
      (void)rm_->Release(record.lease);
      if (record.lease.id != 0) dirty_lease_ids_.insert(record.lease.id);
      break;
  }
}

// ---- Journaling -------------------------------------------------------------

void DurableResourceManager::ReportSyncsLocked() {
  uint64_t total = wal_.syncs();
  if (metrics_.wal_syncs != nullptr && total > syncs_reported_) {
    metrics_.wal_syncs->Increment(total - syncs_reported_);
  }
  syncs_reported_ = total;
}

Status DurableResourceManager::JournalLocked(Record record) {
  record.seq = seq_ + 1;
  std::string payload = EncodeRecord(record);
  // seq_ advances only on success: a failed append (rolled back by the
  // writer) must leave the counter matching what the log holds.
  Status appended = wal_.Append(payload);
  if (!appended.ok()) {
    // The writer may have latched broken; surface it on the gauges now
    // rather than on the next mutation attempt.
    UpdateHealthGaugesLocked();
    return appended;
  }
  seq_ = record.seq;
  if (metrics_.wal_appends != nullptr) metrics_.wal_appends->Increment();
  if (metrics_.wal_bytes != nullptr) {
    metrics_.wal_bytes->Increment(payload.size() + 8);
  }
  ReportSyncsLocked();
  ++records_since_checkpoint_;
  return Status::OK();
}

Status DurableResourceManager::MaybeCheckpointLocked() {
  // Runs only after the journaled mutation has been applied — a
  // checkpoint taken between journal and apply would stamp the record's
  // seq on pages that lack its effect, then truncate the record.
  if (options_.snapshot_every_records == 0 ||
      records_since_checkpoint_ < options_.snapshot_every_records) {
    return Status::OK();
  }
  return CheckpointLocked();
}

Status DurableResourceManager::ExecuteRdl(std::string_view rdl_text) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  // Journal before apply: an RDL script that aborts mid-way still
  // mutated the org, and replay must reproduce exactly that partial
  // effect (redo-logging, DESIGN.md §10).
  Record record;
  record.type = RecordType::kRdl;
  record.text = std::string(rdl_text);
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  Status applied = org::ExecuteRdl(rdl_text, org_.get());
  // Even a script that aborted mid-way mutated the org.
  org_dirty_ = true;
  BumpGenerationLocked();
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Status DurableResourceManager::AddPolicyText(std::string_view pl_text) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  Record record;
  record.type = RecordType::kPl;
  record.text = std::string(pl_text);
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  Status applied = store_->AddPolicyText(pl_text);
  BumpGenerationLocked();
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Status DurableResourceManager::RemoveQualification(int64_t pid) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  Record record;
  record.type = RecordType::kRemoveQualification;
  record.id = pid;
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  Status applied = store_->RemoveQualification(pid);
  BumpGenerationLocked();
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Status DurableResourceManager::RemoveRequirementGroup(int64_t group) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  Record record;
  record.type = RecordType::kRemoveRequirementGroup;
  record.id = group;
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  Status applied = store_->RemoveRequirementGroup(group);
  BumpGenerationLocked();
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Status DurableResourceManager::RemoveSubstitutionGroup(int64_t group) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  Record record;
  record.type = RecordType::kRemoveSubstitutionGroup;
  record.id = group;
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  Status applied = store_->RemoveSubstitutionGroup(group);
  BumpGenerationLocked();
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Result<core::Lease> DurableResourceManager::Acquire(std::string_view rql_text) {
  return AcquireImpl(rql_text, nullptr);
}

Result<core::Lease> DurableResourceManager::Acquire(std::string_view rql_text,
                                                    const RequestContext& ctx) {
  return AcquireImpl(rql_text, &ctx);
}

Result<core::QueryOutcome> DurableResourceManager::EnforceUnlocked(
    std::string_view rql_text, const RequestContext* ctx,
    uint64_t* generation) {
  // The shared world lock only keeps an install from swapping
  // org_/store_/rm_ underneath the enforcement.
  std::shared_lock<std::shared_mutex> world(world_mu_);
  WFRM_RETURN_NOT_OK(EnsureOrgHydrated());
  // Read before enforcing: a mutation that applies after this load is
  // caught at claim time even if the enforcement already saw it.
  *generation = generation_.load(std::memory_order_acquire);
  return SubmitUnder(*rm_, rql_text, ctx);
}

Result<core::QueryOutcome> DurableResourceManager::Enforce(
    std::string_view rql_text, const RequestContext* ctx) {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  WFRM_RETURN_NOT_OK(EnsureOrgHydrated());
  return SubmitUnder(*rm_, rql_text, ctx);
}

std::vector<Result<core::QueryOutcome>> DurableResourceManager::EnforceBatch(
    const std::vector<std::string>& rql_texts, size_t num_workers,
    const RequestContext* ctx) {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  Status hydrated = EnsureOrgHydrated();
  if (!hydrated.ok()) {
    return std::vector<Result<core::QueryOutcome>>(rql_texts.size(),
                                                   hydrated);
  }
  return ctx != nullptr ? rm_->SubmitBatch(rql_texts, num_workers, *ctx)
                        : rm_->SubmitBatch(rql_texts, num_workers);
}

Result<core::Lease> DurableResourceManager::AcquireImpl(
    std::string_view rql_text, const RequestContext* ctx) {
  for (int round = 1;; ++round) {
    // Phase 1, no home lock: enforcement is a read (rewrite plus a query
    // over the org model) and the bulk of an Acquire.
    uint64_t generation = 0;
    Result<core::QueryOutcome> submitted =
        EnforceUnlocked(rql_text, ctx, &generation);
    if (between_acquire_phases_) between_acquire_phases_();

    // Phase 2, under mutate_mu_: claim and journal stay atomic, so a
    // checkpoint never captures an unjournaled grant. The unlocked
    // outcome is used only once the checks below pass. Liveness is
    // checked after the lock: waiting for it may have eaten the budget.
    std::lock_guard<std::mutex> lock(mutate_mu_);
    WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
    WFRM_RETURN_NOT_OK(WritableLocked());
    WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
    if (generation_.load(std::memory_order_relaxed) != generation) {
      // A mutation applied since phase 1 read the generation: that
      // answer may rest on a base no longer in force. Enforce again here,
      // where nothing can move — a mutation burst never starves the
      // request.
      submitted = SubmitUnder(*rm_, rql_text, ctx);
    }
    WFRM_ASSIGN_OR_RETURN(core::QueryOutcome outcome, std::move(submitted));
    if (!outcome.ok()) {
      rm_->CountAcquire(false);
      return outcome.status;
    }
    core::Lease lease = rm_->Claim(outcome);
    if (!lease.valid()) {
      // Concurrent acquirers claimed every candidate between the phases:
      // re-submit for a fresh snapshot, bounded like AcquireExcluding.
      if (round < core::ResourceManager::kMaxAcquireRounds) continue;
      rm_->CountAcquire(false);
      return Status::ResourceUnavailable(
          "could not claim any candidate under concurrent contention");
    }
    // Grants journal after apply: the record carries the *outcome* (which
    // resource, which id), which does not exist beforehand. The crash
    // window loses only unacknowledged grants. Once the claim landed the
    // lease is journaled and returned even if the deadline passed — a
    // typed failure here would leak the allocation.
    Record record;
    record.type = RecordType::kLeaseAcquire;
    record.lease = ToDurableLease(lease, rm_->clock().NowMicros());
    Status journaled = JournalLocked(std::move(record));
    if (!journaled.ok()) {
      (void)rm_->Release(lease);  // Keep state ⊆ journal.
      rm_->CountAcquire(false);
      return journaled;
    }
    rm_->CountAcquire(true);
    dirty_lease_ids_.insert(lease.id);
    (void)MaybeCheckpointLocked();
    return lease;
  }
}

Result<core::Lease> DurableResourceManager::AllocateLease(
    const org::ResourceRef& ref) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  WFRM_ASSIGN_OR_RETURN(core::Lease lease, rm_->AllocateLease(ref));
  Record record;
  record.type = RecordType::kLeaseAcquire;
  record.lease = ToDurableLease(lease, rm_->clock().NowMicros());
  Status journaled = JournalLocked(std::move(record));
  if (!journaled.ok()) {
    (void)rm_->Release(lease);
    return journaled;
  }
  dirty_lease_ids_.insert(lease.id);
  (void)MaybeCheckpointLocked();
  return lease;
}

Status DurableResourceManager::Release(const core::Lease& lease) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  // Journal before apply, unlike the grant paths: releasing a concrete
  // lease replays deterministically, and journaling second would let a
  // failed append leave a release applied in memory that replay undoes
  // — the resource held again by a lease its owner believes released.
  // If the apply below fails (stale lease), replay fails identically:
  // the record degrades to a no-op.
  Record record;
  record.type = RecordType::kLeaseRelease;
  record.lease = ToDurableLease(lease, rm_->clock().NowMicros());
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  if (lease.id != 0) dirty_lease_ids_.insert(lease.id);
  Status applied = rm_->Release(lease);
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Status DurableResourceManager::Release(const org::ResourceRef& ref) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  // Journal before apply (see Release(Lease)); the record pins whatever
  // lease currently holds `ref`, so replay releases exactly that grant.
  std::optional<core::Lease> lease = rm_->FindLease(ref);
  Record record;
  record.type = RecordType::kLeaseRelease;
  record.lease = lease
                     ? ToDurableLease(*lease, rm_->clock().NowMicros())
                     : core::Lease{ref, 0, core::Lease::kNoExpiry};
  WFRM_RETURN_NOT_OK(JournalLocked(std::move(record)));
  if (lease) dirty_lease_ids_.insert(lease->id);
  Status applied = rm_->Release(ref);
  Status checkpointed = MaybeCheckpointLocked();
  return applied.ok() ? checkpointed : applied;
}

Result<core::Lease> DurableResourceManager::RenewLease(
    const core::Lease& lease) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  WFRM_RETURN_NOT_OK(WritableLocked());
  WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  WFRM_ASSIGN_OR_RETURN(core::Lease renewed, rm_->RenewLease(lease));
  Record record;
  record.type = RecordType::kLeaseRenew;
  record.lease = ToDurableLease(renewed, rm_->clock().NowMicros());
  Status journaled = JournalLocked(std::move(record));
  if (!journaled.ok()) {
    // Roll the extension back: the caller sees a failure, so the grant
    // must stay at the deadline the journal's last record covers.
    (void)rm_->RestoreLease(lease);
    return journaled;
  }
  dirty_lease_ids_.insert(renewed.id);
  (void)MaybeCheckpointLocked();
  return renewed;
}

size_t DurableResourceManager::ReapExpired() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Reaping journals releases, i.e. mutates; a degraded or standby
  // store skips the pass (expired leases stay until it heals). An
  // unhydrated lease table has nothing visible to reap either.
  if (!WritableLocked().ok()) return 0;
  if (!EnsureOrgHydratedLocked().ok()) return 0;
  const int64_t now = rm_->clock().NowMicros();
  const size_t batch = options_.reap_batch_limit > 0
                           ? options_.reap_batch_limit
                           : std::numeric_limits<size_t>::max();
  // Journal before apply, like Release(): collect the expired set,
  // journal one release per lease, then reap exactly that set. Journal-
  // after could leave a reap applied in memory whose lease replay
  // resurrects — with its remaining lifetime re-based, i.e. live again.
  //
  // The pass runs in batches of `reap_batch_limit`, releasing and
  // re-taking the lease-table lock between batches: a mass expiry (say
  // 10k leases at one deadline) never pins the table — and with it every
  // concurrent Acquire/Release — for one O(all-leases) critical section.
  // Per batch, ExpiredLeasesBefore and the bounded reap walk the same
  // deterministic map order under the same mutate_mu_ hold, so the
  // journaled set and the reaped set are exactly equal.
  size_t reaped = 0;
  for (;;) {
    std::vector<core::Lease> expired = rm_->ExpiredLeasesBefore(now, batch);
    if (expired.empty()) break;
    size_t journaled = 0;
    for (const core::Lease& lease : expired) {
      Record record;
      record.type = RecordType::kLeaseRelease;
      record.lease = ToDurableLease(lease, now);
      if (!JournalLocked(std::move(record)).ok()) break;
      dirty_lease_ids_.insert(lease.id);
      ++journaled;
    }
    if (journaled == expired.size()) {
      reaped += rm_->ReapExpiredLeasesBefore(now, expired.size()).size();
    } else {
      // Journal failed mid-batch: reap only the journaled prefix. The
      // rest stay held (and expired), and the next pass retries them.
      for (size_t i = 0; i < journaled; ++i) {
        if (rm_->Release(expired[i]).ok()) ++reaped;
      }
      break;
    }
    if (expired.size() < batch) break;
  }
  (void)MaybeCheckpointLocked();
  return reaped;
}

// ---- Checkpointing ----------------------------------------------------------

Status DurableResourceManager::CheckpointLocked() {
  // A buffered (unhydrated) org cannot be dumped, so anything org-dirty
  // hydrates first. A checkpoint with no org changes leaves the lazy
  // base untouched on disk — and stays O(dirty pages).
  if (org_dirty_) {
    WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  }

  // 1. Policy base: per-row deltas since the last checkpoint, or a full
  // image rewrite when the buffer overflowed (bulk load, ImportImage)
  // or the delta stream diverged from the trees.
  policy::PendingPolicyDeltas pending = store_->TakePendingDeltas();
  bool full_rewrite = pending.overflowed;
  if (!full_rewrite && !pending.deltas.empty()) {
    Status applied = pages_->ApplyPolicyDeltas(pending.deltas);
    if (!applied.ok()) full_rewrite = true;
  }
  if (full_rewrite) {
    WFRM_RETURN_NOT_OK(store_->EnsureHydrated());
    WFRM_RETURN_NOT_OK(pages_->RewritePolicyImage(store_->ExportImage()));
  }

  // 2. Org model: RDL text rewrite only when something ran RDL.
  if (org_dirty_) {
    WFRM_ASSIGN_OR_RETURN(std::string rdl, org::DumpRdl(*org_));
    WFRM_RETURN_NOT_OK(pages_->RewriteRdl(rdl));
  }

  // 3. Leases: each id touched since the last checkpoint re-resolves
  // against the live table — present means upsert with its remaining
  // lifetime as of now, gone means delete. Untouched leases keep the
  // lifetime persisted when they were last journaled, which is the same
  // guarantee a WAL replay gives them.
  if (!dirty_lease_ids_.empty()) {
    const int64_t now = rm_->clock().NowMicros();
    std::unordered_set<uint64_t> live_dirty;
    for (const core::Lease& lease : rm_->ListLeases()) {
      if (dirty_lease_ids_.count(lease.id) > 0) {
        WFRM_RETURN_NOT_OK(pages_->PutLease(ToDurableLease(lease, now)));
        live_dirty.insert(lease.id);
      }
    }
    for (uint64_t id : dirty_lease_ids_) {
      if (live_dirty.count(id) == 0) {
        WFRM_RETURN_NOT_OK(pages_->DeleteLease(id));
      }
    }
  }

  // 4. One generation flip carrying the counters.
  PageStoreMeta meta;
  meta.last_seq = seq_;
  meta.next_lease_id = rm_->next_lease_id();
  meta.next_pid = store_->next_pid();
  meta.next_group = store_->next_group();
  meta.epoch = store_->local_epoch();
  if (options_.crash_point == CheckpointCrashPoint::kBeforeMetaCommit) {
    // Simulated crash inside the page flush: data pages durable, meta
    // slot not.
    return pages_->Commit(meta, CommitCrashPoint::kBeforeMeta);
  }
  WFRM_RETURN_NOT_OK(pages_->Commit(meta));
  org_dirty_ = false;
  dirty_lease_ids_.clear();
  if (metrics_.snapshots != nullptr) metrics_.snapshots->Increment();
  if (options_.crash_point == CheckpointCrashPoint::kBeforeWalTruncate) {
    return Status::OK();  // Simulated crash: meta live, WAL untruncated.
  }
  WFRM_RETURN_NOT_OK(wal_.Truncate());
  if (metrics_.wal_truncations != nullptr) {
    metrics_.wal_truncations->Increment();
  }
  ReportSyncsLocked();
  records_since_checkpoint_ = 0;
  // Truncation reset the writer's broken latch (if any) — a successful
  // checkpoint is the repair path out of WAL-degraded mode.
  UpdateHealthGaugesLocked();
  return Status::OK();
}

Status DurableResourceManager::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return CheckpointLocked();
}

// ---- Health / degraded mode -------------------------------------------------

Status DurableResourceManager::WritableLocked() const {
  if (standby_) {
    return Status::Degraded("store " + dir_ +
                            " is a standby replica (read-only); promote it "
                            "to accept mutations");
  }
  if (!wal_.healthy()) {
    return Status::Degraded("store " + dir_ +
                            " is degraded: WAL latched broken after a failed "
                            "append (a successful checkpoint repairs it)");
  }
  if (!external_degraded_reason_.empty()) {
    return Status::Degraded("store " + dir_ +
                            " is degraded: " + external_degraded_reason_);
  }
  return Status::OK();
}

void DurableResourceManager::UpdateHealthGaugesLocked() {
  if (metrics_.wal_broken != nullptr) {
    metrics_.wal_broken->Set(wal_.healthy() ? 0 : 1);
  }
  if (metrics_.degraded != nullptr) {
    metrics_.degraded->Set(WritableLocked().ok() ? 0 : 1);
  }
}

bool DurableResourceManager::degraded() const {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return !WritableLocked().ok();
}

std::string DurableResourceManager::degraded_reason() const {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  if (standby_) return "standby replica (read-only until promoted)";
  if (!wal_.healthy()) return "WAL latched broken (checkpoint to repair)";
  return external_degraded_reason_;
}

bool DurableResourceManager::wal_healthy() const {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return wal_.healthy();
}

void DurableResourceManager::EnterDegraded(std::string reason) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  external_degraded_reason_ = std::move(reason);
  UpdateHealthGaugesLocked();
}

void DurableResourceManager::ExitDegraded() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  external_degraded_reason_.clear();
  UpdateHealthGaugesLocked();
}

void DurableResourceManager::EnterStandby() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  standby_ = true;
  UpdateHealthGaugesLocked();
}

void DurableResourceManager::ExitStandby() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  standby_ = false;
  UpdateHealthGaugesLocked();
}

bool DurableResourceManager::standby() const {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return standby_;
}

// ---- Replication hooks ------------------------------------------------------

Result<DurableResourceManager::CatchupImage>
DurableResourceManager::CaptureCatchupImage() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Checkpoint so pages.db embodies everything through seq_, then ship
  // the raw file: the follower installs pages instead of re-importing a
  // decoded image.
  WFRM_RETURN_NOT_OK(CheckpointLocked());
  CatchupImage image;
  WFRM_ASSIGN_OR_RETURN(image.bytes, ReadFileBytes(PagesPath()));
  image.last_seq = seq_;
  return image;
}

Status DurableResourceManager::InstallPagedImage(std::string_view bytes) {
  // The install replaces org_/store_/rm_; the world lock keeps Acquire's
  // unlocked enforcement off them for the swap.
  std::unique_lock<std::shared_mutex> world(world_mu_);
  std::lock_guard<std::mutex> lock(mutate_mu_);
  if (!LooksLikePagesFile(bytes)) {
    return Status::ExecutionError("shipped catch-up image is not a pages.db");
  }
  // Commit the shipped file while the old engine still holds the old one
  // open. A commit that failed before its rename changed nothing: keep
  // the engine and the world. One that failed after it (the directory
  // fsync) left pages.db naming the shipped file, so the world must
  // follow it — an engine on the replaced file would checkpoint into a
  // file no reopen reads.
  const ino_t replaced = FileId(PagesPath());
  Status committed = WriteFileDurable(PagesPath(), bytes);
  if (!committed.ok() && FileId(PagesPath()) == replaced) return committed;
  WFRM_ASSIGN_OR_RETURN(std::shared_ptr<PageStore> pages,
                        PageStore::Open(PagesPath(), options_.pager));
  pages_ = std::move(pages);
  ResetWorldLocked();
  WFRM_RETURN_NOT_OK(LoadWorldFromPagesLocked());
  if (committed.ok()) {
    // Truncate only once the new file is durable: until then a crash may
    // bring back the old pages.db, which needs the WAL behind it. Replay
    // skips the kept records by seq when the shipped file survives.
    WFRM_RETURN_NOT_OK(wal_.Truncate());
    if (metrics_.snapshots != nullptr) metrics_.snapshots->Increment();
    if (metrics_.wal_truncations != nullptr) {
      metrics_.wal_truncations->Increment();
    }
    records_since_checkpoint_ = 0;
  }
  UpdateHealthGaugesLocked();
  return committed;
}

Status DurableResourceManager::ApplyReplicated(const Record& record) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  if (!wal_.healthy()) {
    return Status::Degraded("store " + dir_ +
                            " cannot journal replicated records: WAL latched "
                            "broken");
  }
  if (record.seq != seq_ + 1) {
    return Status::InvalidArgument(
        "replication gap: record has seq " + std::to_string(record.seq) +
        ", store expects " + std::to_string(seq_ + 1));
  }
  // Hydrate before journaling: a non-RDL record applies against the
  // org/lease world, and a hydration failure must reject the record
  // outright rather than journal an effect memory lacks.
  if (record.type != RecordType::kRdl) {
    WFRM_RETURN_NOT_OK(EnsureOrgHydratedLocked());
  }
  // Journal under the primary's own seq (not a locally assigned one):
  // the follower's log stays byte-compatible with the primary's history,
  // so recovery and further catch-up use the same sequence space.
  std::string payload = EncodeRecord(record);
  Status appended = wal_.Append(payload);
  if (!appended.ok()) {
    UpdateHealthGaugesLocked();
    return appended;
  }
  seq_ = record.seq;
  if (metrics_.wal_appends != nullptr) metrics_.wal_appends->Increment();
  if (metrics_.wal_bytes != nullptr) {
    metrics_.wal_bytes->Increment(payload.size() + 8);
  }
  ReportSyncsLocked();
  ++records_since_checkpoint_;
  ApplyRecord(record);
  // A standby refuses Acquire, so a replicated lease record bumping too
  // costs nothing.
  BumpGenerationLocked();
  return MaybeCheckpointLocked();
}

std::string DurableResourceManager::StateFingerprint(
    bool include_deadlines) const {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Best effort: the signature cannot report a hydration I/O failure,
  // so a failed load fingerprints whatever is resident.
  (void)EnsureOrgHydratedLocked();
  FingerprintOptions options;
  options.include_deadlines = include_deadlines;
  return FingerprintWorld(*org_, *store_, *rm_, options);
}

}  // namespace wfrm::store
