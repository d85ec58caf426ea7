// The paged storage engine end to end: policy-image roundtrips and
// incremental deltas through the seven B+trees, commit crash seams,
// legacy snapshot migration, lazy hydration behind the bloom filter,
// home lockfile semantics, orphaned-tmp reaping, and the commit fault
// paths of a shipped checkpoint (rename / directory-sync failures).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/fault_injector.h"
#include "core/resource_manager.h"
#include "org/rdl_dump.h"
#include "policy/pl_dump.h"
#include "store/durable_rm.h"
#include "store/home_lock.h"
#include "store/page_store.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "testutil/paper_org.h"

namespace wfrm::store {
namespace {

constexpr char kRdl[] = R"(
  Define Resource Type Employee
      (ContactInfo String, Location String, Experience Int);
  Define Resource Type Programmer Under Employee;
  Define Activity Type Activity (Location String);
  Define Activity Type Programming Under Activity (NumberOfLines Int);
  Insert Resource Programmer 'alice'
      (ContactInfo = 'alice@x.com', Location = 'PA', Experience = 8);
  Insert Resource Programmer 'bob'
      (ContactInfo = 'bob@x.com', Location = 'PA', Experience = 3);
)";

constexpr char kPolicies[] = R"(
  Qualify Programmer For Programming;
  Require Programmer Where Experience > 5
    For Programming With NumberOfLines > 10000;
)";

constexpr char kBigJob[] =
    "Select ContactInfo From Programmer Where Location = 'PA' "
    "For Programming With NumberOfLines = 20000 And Location = 'PA'";

std::string Fingerprint(DurableResourceManager& d) {
  auto rdl = org::DumpRdl(d.org());
  auto pl = policy::DumpPl(d.store());
  std::ostringstream out;
  out << (rdl.ok() ? *rdl : rdl.status().ToString()) << "\n---\n"
      << (pl.ok() ? *pl : pl.status().ToString()) << "\n---\n"
      << "epoch=" << d.store().epoch()
      << " next_lease=" << d.rm().next_lease_id() << "\n";
  auto leases = d.rm().ListLeases();
  std::sort(leases.begin(), leases.end(),
            [](const core::Lease& a, const core::Lease& b) {
              return a.id < b.id;
            });
  for (const auto& l : leases) {
    out << l.resource.type << "/" << l.resource.id << " id=" << l.id << "\n";
  }
  return out.str();
}

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_pages_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    SetCommitSnapshotFaultHook(nullptr);  // Never leak into other tests.
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Runs the workload in `home` (the fixture's home when empty).
  std::unique_ptr<DurableResourceManager> OpenWithWorkload(
      const std::string& home = {}) {
    auto d = DurableResourceManager::Open(home.empty() ? dir_ : home);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    if (!d.ok()) return nullptr;
    EXPECT_TRUE((*d)->ExecuteRdl(kRdl).ok());
    EXPECT_TRUE((*d)->AddPolicyText(kPolicies).ok());
    auto lease = (*d)->Acquire(kBigJob);
    EXPECT_TRUE(lease.ok()) << lease.status().ToString();
    return std::move(*d);
  }

  /// The workload's checkpoint as a catch-up ships it: the raw pages.db
  /// of a second home that ran the same workload.
  std::string WorkloadCatchupImage() {
    auto source = OpenWithWorkload(dir_ + "/source");
    if (source == nullptr) return {};
    auto image = source->CaptureCatchupImage();
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    return image.ok() ? image->bytes : std::string();
  }

  std::string dir_;
};

TEST_F(PageStoreTest, PolicyImageRoundTripsThroughTrees) {
  auto world = testutil::BuildPaperWorld();
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  policy::PolicyStore::Image image = world->store->ExportImage();

  std::string path = dir_ + "/pages.db";
  {
    auto pages = PageStore::Open(path);
    ASSERT_TRUE(pages.ok()) << pages.status().ToString();
    ASSERT_TRUE((*pages)->RewritePolicyImage(image).ok());
    PageStoreMeta meta;
    meta.last_seq = 7;
    meta.next_pid = image.next_pid;
    meta.next_group = image.next_group;
    meta.epoch = image.epoch;
    ASSERT_TRUE((*pages)->Commit(meta).ok());
  }

  auto pages = PageStore::Open(path);
  ASSERT_TRUE(pages.ok());
  EXPECT_FALSE((*pages)->created());
  EXPECT_EQ((*pages)->meta().last_seq, 7u);
  auto loaded = (*pages)->LoadImage();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_pid, image.next_pid);
  EXPECT_EQ(loaded->next_group, image.next_group);

  // The loaded image must describe the same policy base: import it into
  // a mirror store over the same org and compare canonical PL dumps.
  policy::PolicyStore mirror(world->org.get());
  ASSERT_TRUE(mirror.ImportImage(*loaded).ok());
  auto expected = policy::DumpPl(*world->store);
  auto actual = policy::DumpPl(mirror);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(*actual, *expected);
}

TEST_F(PageStoreTest, IncrementalDeltasMatchTheLiveStore) {
  auto world = testutil::BuildPaperWorld();
  ASSERT_TRUE(world.ok());
  std::string path = dir_ + "/pages.db";
  auto pages = PageStore::Open(path);
  ASSERT_TRUE(pages.ok());
  ASSERT_TRUE((*pages)->RewritePolicyImage(world->store->ExportImage()).ok());

  // Mutate the live store with delta tracking on; the drained per-row
  // deltas applied to the trees must land on the same relational state.
  world->store->set_delta_tracking(true);
  ASSERT_TRUE(world->store
                  ->AddPolicyText(
                      "Require Programmer Where Experience > 5 "
                      "For Programming With NumberOfLines > 77777;")
                  .ok());
  ASSERT_TRUE(world->store->RemoveRequirementGroup(1).ok());
  policy::PendingPolicyDeltas pending = world->store->TakePendingDeltas();
  ASSERT_FALSE(pending.overflowed);
  ASSERT_FALSE(pending.deltas.empty());
  ASSERT_TRUE((*pages)->ApplyPolicyDeltas(pending.deltas).ok());
  PageStoreMeta meta;
  meta.last_seq = 1;
  ASSERT_TRUE((*pages)->Commit(meta).ok());

  auto loaded = (*pages)->LoadImage();
  ASSERT_TRUE(loaded.ok());
  policy::PolicyStore mirror(world->org.get());
  ASSERT_TRUE(mirror.ImportImage(*loaded).ok());
  auto expected = policy::DumpPl(*world->store);
  auto actual = policy::DumpPl(mirror);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(*actual, *expected);

  // A delta whose delete finds nothing means divergence and must be
  // loud — the checkpoint falls back to a full rewrite on it.
  policy::PolicyRowDelta bogus;
  bogus.relation = policy::PolicyRelation::kPolicies;
  bogus.deleted = true;
  bogus.row = loaded->policies.empty() ? rel::Row{} : loaded->policies[0];
  Status st = (*pages)->ApplyPolicyDeltas({bogus, bogus});
  EXPECT_FALSE(st.ok());
}

TEST_F(PageStoreTest, CommitCrashBeforeMetaFallsBackToPreviousGeneration) {
  std::string path = dir_ + "/pages.db";
  {
    auto pages = PageStore::Open(path);
    ASSERT_TRUE(pages.ok());
    core::Lease first;
    first.resource = {"Employee", "alice"};
    first.id = 1;
    first.deadline_micros = 1000;
    ASSERT_TRUE((*pages)->PutLease(first).ok());
    PageStoreMeta meta;
    meta.last_seq = 1;
    meta.next_lease_id = 2;
    ASSERT_TRUE((*pages)->Commit(meta).ok());

    core::Lease second = first;
    second.id = 2;
    ASSERT_TRUE((*pages)->PutLease(second).ok());
    meta.last_seq = 2;
    meta.next_lease_id = 3;
    // Pages hit the disk, the meta slot does not — a crash inside the
    // checkpoint's page flush.
    ASSERT_TRUE((*pages)->Commit(meta, CommitCrashPoint::kBeforeMeta).ok());
  }
  auto pages = PageStore::Open(path);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ((*pages)->meta().last_seq, 1u);
  EXPECT_EQ((*pages)->meta().next_lease_id, 2u);
  auto leases = (*pages)->LoadLeases();
  ASSERT_TRUE(leases.ok());
  ASSERT_EQ(leases->size(), 1u);
  EXPECT_EQ((*leases)[0].id, 1u);
}

TEST_F(PageStoreTest, PagedReopenIsLazyUntilAPolicyRead) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->Checkpoint().ok());
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 0u);
  // Nothing has asked for policies yet, so the relations are unloaded.
  EXPECT_FALSE((*d)->store().hydrated());
  // The first real read hydrates transparently and state matches.
  EXPECT_EQ(Fingerprint(**d), before);
  EXPECT_TRUE((*d)->store().hydrated());
}

TEST_F(PageStoreTest, PagedReopenDefersTheOrgAndBuffersRdlTails) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->Checkpoint().ok());
    // A pure-RDL tail after the checkpoint: recovery must buffer it
    // instead of loading the whole org just to apply one insert.
    ASSERT_TRUE(d->ExecuteRdl("Insert Resource Programmer 'carol' "
                              "(ContactInfo = 'carol@x.com', Location = "
                              "'PA', Experience = 9);")
                    .ok());
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 1u);
  // The tail advanced the sequence without making the org resident.
  EXPECT_FALSE((*d)->org_hydrated());
  // First use loads the checkpointed base, then the buffered tail in
  // journal order — carol exists and the full state matches.
  EXPECT_TRUE((*d)->org().GetResource({"Programmer", "carol"}).ok());
  EXPECT_TRUE((*d)->org_hydrated());
  EXPECT_EQ(Fingerprint(**d), before);

  // A lease record in the tail is different: it applies against the
  // allocation table, so replay hydrates mid-recovery.
  ASSERT_TRUE((*d)->Release(org::ResourceRef{"Programmer", "alice"}).ok());
  d->reset();
  auto again = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE((*again)->org_hydrated());
  EXPECT_TRUE((*again)->rm().ListLeases().empty());
}

TEST_F(PageStoreTest, BloomSkipsNoPolicyActivitiesWithoutTouchingDisk) {
  {
    auto d = DurableResourceManager::Open(dir_);
    ASSERT_TRUE(d.ok());
    std::ostringstream rdl;
    rdl << "Define Resource Type Employee (Experience Int);"
        << "Define Activity Type Activity (Location String);";
    for (int i = 0; i < 20; ++i) {
      rdl << "Define Activity Type Act" << i << " Under Activity;";
    }
    rdl << "Insert Resource Employee 'alice' (Experience = 8);";
    ASSERT_TRUE((*d)->ExecuteRdl(rdl.str()).ok());
    // Policies name Act0 only; the other 19 activity types appear in no
    // policy row and must be answerable from the bloom filter alone.
    ASSERT_TRUE((*d)->AddPolicyText("Qualify Employee For Act0;").ok());
    ASSERT_TRUE((*d)->Checkpoint().ok());
  }

  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  for (int i = 1; i < 20; ++i) {
    auto qualified =
        (*d)->store().IsQualified("Employee", "Act" + std::to_string(i));
    ASSERT_TRUE(qualified.ok()) << qualified.status().ToString();
    EXPECT_FALSE(*qualified);
  }
  // 19 no-policy probes served from empty tables: still not hydrated.
  EXPECT_FALSE((*d)->store().hydrated());
  auto hit = (*d)->store().IsQualified("Employee", "Act0");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  EXPECT_TRUE((*d)->store().hydrated());

  policy::StoreStatsSnapshot stats = (*d)->store().stats().Snapshot();
  ASSERT_GE(stats.bloom_probes, 20u);
  // The acceptance bar: >= 90% of disk probes skipped on a workload
  // dominated by no-policy-applies lookups.
  EXPECT_GE(static_cast<double>(stats.bloom_skips),
            0.9 * static_cast<double>(stats.bloom_probes))
      << "probes=" << stats.bloom_probes << " skips=" << stats.bloom_skips;
}

TEST_F(PageStoreTest, IncrementalCheckpointFlushesOnlyDirtyPages) {
  auto d = OpenWithWorkload();
  ASSERT_NE(d, nullptr);
  // Grow the policy base so a full rewrite costs many pages.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(d->AddPolicyText("Require Programmer Where Experience > 5 "
                                 "For Programming With NumberOfLines > " +
                                 std::to_string(100000 + i) + ";")
                    .ok());
  }
  ASSERT_TRUE(d->Checkpoint().ok());
  uint64_t full_flush = d->page_stats().pager.pages_flushed_last_commit;
  ASSERT_GT(full_flush, 0u);

  // One lease mutation later, the next checkpoint touches the lease
  // tree path and the meta — not the policy base. (alice is already
  // held by the fixture workload; releasing her is the mutation.)
  ASSERT_TRUE(d->Release(org::ResourceRef{"Programmer", "alice"}).ok());
  ASSERT_TRUE(d->Checkpoint().ok());
  uint64_t incremental_flush =
      d->page_stats().pager.pages_flushed_last_commit;
  EXPECT_LE(incremental_flush, 16u)
      << "full=" << full_flush << " incremental=" << incremental_flush;
  EXPECT_LT(incremental_flush, full_flush);
}

TEST_F(PageStoreTest, LegacySnapshotMigratesOnFirstPagedOpen) {
  std::string before;
  {
    // The workload's home rewritten in the legacy layout: its whole
    // state in snapshot.dat, an empty WAL and no pages.db.
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    before = Fingerprint(*d);
    SnapshotData legacy;
    legacy.last_seq = d->last_seq();
    legacy.rdl_text = *org::DumpRdl(d->org());
    legacy.policy_image = d->store().ExportImage();
    legacy.leases = d->rm().ListLeases();
    legacy.next_lease_id = d->rm().next_lease_id();
    d.reset();
    ASSERT_TRUE(std::filesystem::remove(dir_ + "/pages.db"));
    std::ofstream(dir_ + "/wal.log", std::ios::binary | std::ios::trunc);
    std::ofstream(dir_ + "/snapshot.dat", std::ios::binary)
        << EncodeSnapshot(legacy);
  }
  ASSERT_TRUE(std::filesystem::exists(dir_ + "/snapshot.dat"));

  {
    auto d = DurableResourceManager::Open(dir_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_TRUE((*d)->recovery_info().migrated_legacy);
    EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
    EXPECT_EQ(Fingerprint(**d), before);
    // Migration consumed the legacy file and left the paged image.
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/snapshot.dat"));
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/pages.db"));
  }

  // Second paged open: nothing left to migrate, same state.
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE((*d)->recovery_info().migrated_legacy);
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(PageStoreTest, OrphanedTmpFilesAreReapedAtOpen) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    before = Fingerprint(*d);
  }
  // A crash inside a catch-up install, after the tmp write and before
  // its rename, leaves an orphaned pages.db.tmp.
  std::filesystem::copy_file(dir_ + "/pages.db", dir_ + "/pages.db.tmp");
  {
    std::ofstream junk(dir_ + "/other.tmp", std::ios::binary);
    junk << "leftover";
  }

  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ((*d)->recovery_info().tmp_files_reaped, 2u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/pages.db.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/other.tmp"));
  // The crash never committed, so recovery rebuilt state from the WAL.
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(PageStoreTest, SecondOpenOfALiveHomeFailsTyped) {
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok());
  auto second = DurableResourceManager::Open(dir_);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsHomeLocked())
      << second.status().ToString();

  // Releasing the first owner frees the home.
  d->reset();
  auto third = DurableResourceManager::Open(dir_);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST_F(PageStoreTest, StaleAndGarbageLockfilesAreBroken) {
  {
    // A lockfile from a dead process (no such pid) must not wedge the
    // home forever.
    std::ofstream lock(HomeLock::PathFor(dir_), std::ios::binary);
    lock << 999999999 << "\n";
  }
  {
    auto d = DurableResourceManager::Open(dir_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
  }
  {
    std::ofstream lock(HomeLock::PathFor(dir_), std::ios::binary);
    lock << "not-a-pid\n";
  }
  auto d = DurableResourceManager::Open(dir_);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
}

TEST_F(PageStoreTest, CheckpointRenameFaultCleansTmpAndRecovers) {
  const std::string image = WorkloadCatchupImage();
  ASSERT_FALSE(image.empty());
  auto d = OpenWithWorkload();
  ASSERT_NE(d, nullptr);
  std::string before = Fingerprint(*d);

  core::FaultInjectorOptions fault_options;
  fault_options.storage_fault_rate = 1.0;
  core::FaultInjector injector(fault_options);
  SetCommitSnapshotFaultHook([&injector](std::string_view op) {
    return op == "rename" && injector.SampleStorageFault();
  });
  Status st = d->InstallPagedImage(image);
  ASSERT_FALSE(st.ok());
  EXPECT_GE(injector.num_storage_faults_injected(), 1u);
  // The failed commit must not strand its tmp file, and must not have
  // replaced pages.db or truncated the WAL.
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/pages.db.tmp"));
  EXPECT_NE(ReadFileBytes(dir_ + "/pages.db").ValueOr(""), image);
  auto scan = ReadWal(dir_ + "/wal.log");
  ASSERT_TRUE(scan.ok());
  EXPECT_GT(scan->payloads.size(), 0u);
  EXPECT_EQ(Fingerprint(*d), before);

  // With the fault gone the same store checkpoints and installs fine.
  SetCommitSnapshotFaultHook(nullptr);
  EXPECT_TRUE(d->Checkpoint().ok());
  EXPECT_TRUE(d->InstallPagedImage(image).ok());
  EXPECT_EQ(Fingerprint(*d), before);
}

TEST_F(PageStoreTest, CheckpointDirSyncFaultKeepsWalForRecovery) {
  const std::string image = WorkloadCatchupImage();
  ASSERT_FALSE(image.empty());
  std::string before;
  size_t wal_records = 0;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    before = Fingerprint(*d);
    {
      auto scan = ReadWal(dir_ + "/wal.log");
      ASSERT_TRUE(scan.ok());
      wal_records = scan->payloads.size();
    }

    core::FaultInjectorOptions fault_options;
    fault_options.storage_fault_rate = 1.0;
    core::FaultInjector injector(fault_options);
    SetCommitSnapshotFaultHook([&injector](std::string_view op) {
      return op == "dirsync" && injector.SampleStorageFault();
    });
    Status st = d->InstallPagedImage(image);
    ASSERT_FALSE(st.ok());
    EXPECT_GE(injector.num_storage_faults_injected(), 1u);
    SetCommitSnapshotFaultHook(nullptr);
    // The engine followed the renamed file and keeps serving.
    EXPECT_EQ(Fingerprint(*d), before);
  }
  // The rename happened but its durability is unknown — the WAL must
  // still hold every record so either outcome recovers.
  EXPECT_EQ(ReadFileBytes(dir_ + "/pages.db").ValueOr(""), image);
  auto scan = ReadWal(dir_ + "/wal.log");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->payloads.size(), wal_records);

  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ((*d)->recovery_info().wal_records_skipped, wal_records);
  EXPECT_EQ(Fingerprint(**d), before);
}

}  // namespace
}  // namespace wfrm::store
