// DurableResourceManager: open/mutate/reopen equality, checkpoint
// truncation, torn tails, SaveWorld, a corrupt legacy snapshot.dat, the
// WAL/checkpoint metrics and the acquire counters.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/clock.h"
#include "core/resource_manager.h"
#include "obs/metrics.h"
#include "org/rdl_dump.h"
#include "policy/pl_dump.h"
#include "store/durable_rm.h"
#include "store/snapshot.h"
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

/// Full observable state: org as RDL, policy base as PL, combined
/// epoch, lease-id high-water mark, and the live lease set. Two stores
/// with equal fingerprints are indistinguishable to every query path.
std::string Fingerprint(const org::OrgModel& org,
                        const policy::PolicyStore& store,
                        const core::ResourceManager& rm) {
  auto rdl = org::DumpRdl(org);
  auto pl = policy::DumpPl(store);
  std::ostringstream out;
  out << (rdl.ok() ? *rdl : rdl.status().ToString()) << "\n---\n"
      << (pl.ok() ? *pl : pl.status().ToString()) << "\n---\n"
      << "epoch=" << store.epoch() << " next_lease=" << rm.next_lease_id()
      << "\n";
  auto leases = rm.ListLeases();
  std::sort(leases.begin(), leases.end(),
            [](const core::Lease& a, const core::Lease& b) {
              return std::tie(a.resource.type, a.resource.id, a.id) <
                     std::tie(b.resource.type, b.resource.id, b.id);
            });
  for (const auto& l : leases) {
    out << l.resource.type << "/" << l.resource.id << " id=" << l.id
        << " deadline=" << l.deadline_micros << "\n";
  }
  return out.str();
}

std::string Fingerprint(DurableResourceManager& d) {
  return Fingerprint(d.org(), d.store(), d.rm());
}

class DurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_durable_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Opens `dir_` and runs the standard workload: org + policies + one
  /// acquired lease.
  std::unique_ptr<DurableResourceManager> OpenWithWorkload(
      DurableOptions options = {}) {
    auto d = DurableResourceManager::Open(dir_, options);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    if (!d.ok()) return nullptr;
    EXPECT_TRUE((*d)->ExecuteRdl(kRdl).ok());
    EXPECT_TRUE((*d)->AddPolicyText(kPolicies).ok());
    auto lease = (*d)->Acquire(kBigJob);
    EXPECT_TRUE(lease.ok()) << lease.status().ToString();
    return std::move(*d);
  }

  std::string dir_;
};

TEST_F(DurableTest, FreshOpenRecoversNothing) {
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 0u);
  EXPECT_EQ((*d)->last_seq(), 0u);
}

TEST_F(DurableTest, ReopenReplaysWalExactly) {
  std::string before;
  uint64_t seq = 0;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    before = Fingerprint(*d);
    seq = d->last_seq();
    EXPECT_GT(d->wal_bytes(), 0u);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_FALSE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 3u);
  EXPECT_EQ((*d)->last_seq(), seq);
  EXPECT_EQ(Fingerprint(**d), before);

  // The recovered lease still guards its resource: the only qualified
  // programmer is taken, so the same acquire now fails.
  EXPECT_FALSE((*d)->Acquire(kBigJob).ok());
}

TEST_F(DurableTest, CheckpointTruncatesAndReopensFromSnapshot) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->Checkpoint().ok());
    EXPECT_EQ(d->wal_bytes(), 0u);
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 0u);
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(DurableTest, MutationsAfterCheckpointReplayOnTopOfSnapshot) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->Checkpoint().ok());
    ASSERT_TRUE(d->ExecuteRdl("Insert Resource Programmer 'carol' "
                              "(ContactInfo = 'carol@x.com', "
                              "Location = 'PA', Experience = 9);")
                    .ok());
    ASSERT_TRUE(d->Acquire(kBigJob).ok());  // Gets carol.
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 2u);
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(DurableTest, AutomaticCheckpointEveryNRecords) {
  DurableOptions options;
  options.snapshot_every_records = 2;
  std::string before;
  {
    auto d = OpenWithWorkload(options);
    ASSERT_NE(d, nullptr);
    // 3 records with a checkpoint after the 2nd: only the 3rd survives
    // in the WAL.
    auto scan = ReadWal(dir_ + "/wal.log");
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->payloads.size(), 1u);
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(DurableTest, TornWalTailRecoversPrefix) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    before = Fingerprint(*d);
  }
  {
    // Crash mid-append: a frame header with no body after it.
    std::ofstream out(dir_ + "/wal.log", std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\x99\x99", 6);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().torn_tail);
  EXPECT_EQ((*d)->recovery_info().wal_records_replayed, 3u);
  EXPECT_EQ(Fingerprint(**d), before);

  // The torn bytes were cut; new appends produce a clean log.
  ASSERT_TRUE((*d)->ExecuteRdl("Insert Resource Programmer 'dora' "
                               "(ContactInfo = 'd@x.com', Location = 'PA', "
                               "Experience = 7);")
                  .ok());
  auto scan = ReadWal(dir_ + "/wal.log");
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->payloads.size(), 4u);
}

TEST_F(DurableTest, ReleasedAndRenewedLeasesSurviveReopen) {
  SimulatedClock clock;
  DurableOptions options;
  options.rm_options.clock = &clock;
  options.rm_options.lease_duration_micros = 1'000'000;
  uint64_t survivor_id = 0;
  {
    auto d = OpenWithWorkload(options);
    ASSERT_NE(d, nullptr);
    auto first = d->rm().ListLeases();
    ASSERT_EQ(first.size(), 1u);
    survivor_id = first[0].id;
    // Free bob's qualification requirement by adding a second senior
    // programmer, acquire + release one, renew the other.
    ASSERT_TRUE(d->ExecuteRdl("Insert Resource Programmer 'carol' "
                              "(ContactInfo = 'c@x.com', Location = 'PA', "
                              "Experience = 9);")
                    .ok());
    auto second = d->Acquire(kBigJob);
    ASSERT_TRUE(second.ok());
    clock.AdvanceMicros(500'000);
    auto renewed = d->RenewLease(*second);
    ASSERT_TRUE(renewed.ok());
    EXPECT_GT(renewed->deadline_micros, second->deadline_micros);
    ASSERT_TRUE(d->Release(*renewed).ok());
  }
  DurableOptions reopen;
  reopen.rm_options.clock = &clock;
  reopen.rm_options.lease_duration_micros = 1'000'000;
  auto d = DurableResourceManager::Open(dir_, reopen);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto leases = (*d)->rm().ListLeases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].id, survivor_id);
  // Persisted deadlines are remaining lifetimes: the survivor had a
  // full second left when journaled (at clock 0), and recovery re-bases
  // that onto the clock's current reading of 500ms.
  EXPECT_EQ(leases[0].deadline_micros, 1'500'000);
  EXPECT_TRUE((*d)->rm().IsLeaseActive(leases[0]));
}

TEST_F(DurableTest, ReapIsJournaledPerLease) {
  SimulatedClock clock;
  DurableOptions options;
  options.rm_options.clock = &clock;
  options.rm_options.lease_duration_micros = 1'000;
  std::string before;
  {
    auto d = OpenWithWorkload(options);
    ASSERT_NE(d, nullptr);
    clock.AdvanceMicros(10'000);
    EXPECT_EQ(d->ReapExpired(), 1u);
    before = Fingerprint(*d);
  }
  DurableOptions reopen;
  reopen.rm_options.clock = &clock;
  reopen.rm_options.lease_duration_micros = 1'000;
  auto d = DurableResourceManager::Open(dir_, reopen);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(Fingerprint(**d), before);
  EXPECT_TRUE((*d)->rm().ListLeases().empty());
}

TEST_F(DurableTest, LeaseDeadlinesSurviveClockEpochChange) {
  // A SystemClock reads microseconds since boot, so after a host
  // restart the recovering process's clock restarts near zero —
  // persisted monotonic timestamps would make recovered leases look
  // live for hours (or expired on arrival). Simulated here: journal
  // under a clock reading 7000s, recover under one reading 0; the lease
  // must come back with its remaining lifetime re-based.
  SimulatedClock first_boot(7'000'000'000);
  DurableOptions options;
  options.rm_options.clock = &first_boot;
  options.rm_options.lease_duration_micros = 1'000'000;
  {
    auto d = OpenWithWorkload(options);
    ASSERT_NE(d, nullptr);
  }

  SimulatedClock second_boot(0);
  DurableOptions reopen;
  reopen.rm_options.clock = &second_boot;
  reopen.rm_options.lease_duration_micros = 1'000'000;
  {
    // WAL replay path.
    auto d = DurableResourceManager::Open(dir_, reopen);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    auto leases = (*d)->rm().ListLeases();
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(leases[0].deadline_micros, 1'000'000);
    EXPECT_TRUE((*d)->rm().IsLeaseActive(leases[0]));
    ASSERT_TRUE((*d)->Checkpoint().ok());
  }

  SimulatedClock third_boot(0);
  DurableOptions again;
  again.rm_options.clock = &third_boot;
  again.rm_options.lease_duration_micros = 1'000'000;
  // Snapshot path: the checkpoint above re-captured the remaining
  // lifetime, so another "reboot" restores it the same way — and the
  // lease then expires on schedule.
  auto d = DurableResourceManager::Open(dir_, again);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto leases = (*d)->rm().ListLeases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].deadline_micros, 1'000'000);
  third_boot.AdvanceMicros(2'000'000);
  EXPECT_EQ((*d)->ReapExpired(), 1u);
}

TEST_F(DurableTest, FailedReleaseJournalLeavesLeaseHeld) {
  auto d = OpenWithWorkload();
  ASSERT_NE(d, nullptr);
  auto leases = d->rm().ListLeases();
  ASSERT_EQ(leases.size(), 1u);
  d->TestFailNextJournal(3);
  EXPECT_FALSE(d->Release(leases[0]).ok());
  // Releases journal before they apply: the failed append left the
  // lease in place, so memory and journal agree — replay cannot
  // resurrect a lease the owner was told was released.
  EXPECT_TRUE(d->rm().IsAllocated(leases[0].resource));
  // The partial frame was rolled back, so the log stays appendable and
  // a retried release lands cleanly after the acknowledged records.
  ASSERT_TRUE(d->Release(leases[0]).ok());
  auto scan = ReadWal(dir_ + "/wal.log");
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->payloads.size(), 4u);  // rdl, pl, acquire, release.
  EXPECT_FALSE(d->rm().IsAllocated(leases[0].resource));
}

TEST_F(DurableTest, FailedRenewJournalRollsBackExtension) {
  SimulatedClock clock;
  DurableOptions options;
  options.rm_options.clock = &clock;
  options.rm_options.lease_duration_micros = 1'000'000;
  auto d = OpenWithWorkload(options);
  ASSERT_NE(d, nullptr);
  auto leases = d->rm().ListLeases();
  ASSERT_EQ(leases.size(), 1u);
  ASSERT_EQ(leases[0].deadline_micros, 1'000'000);
  clock.AdvanceMicros(500'000);
  d->TestFailNextJournal(2);
  EXPECT_FALSE(d->RenewLease(leases[0]).ok());
  // The caller saw a failure, so the grant must stay at the deadline
  // the journal covers — not the silently extended one.
  auto held = d->rm().FindLease(leases[0].resource);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->deadline_micros, 1'000'000);
  auto renewed = d->RenewLease(leases[0]);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(renewed->deadline_micros, 1'500'000);
}

TEST_F(DurableTest, FailedReapJournalKeepsLeaseForNextPass) {
  SimulatedClock clock;
  DurableOptions options;
  options.rm_options.clock = &clock;
  options.rm_options.lease_duration_micros = 1'000;
  auto d = OpenWithWorkload(options);
  ASSERT_NE(d, nullptr);
  clock.AdvanceMicros(10'000);
  d->TestFailNextJournal(4);
  // Reap journals the expired set before reclaiming it: with the
  // append failing, nothing is reaped and the lease stays held.
  EXPECT_EQ(d->ReapExpired(), 0u);
  EXPECT_EQ(d->rm().ListLeases().size(), 1u);
  EXPECT_EQ(d->ReapExpired(), 1u);
  EXPECT_TRUE(d->rm().ListLeases().empty());
}

TEST_F(DurableTest, LeaseIdsNeverReusedAcrossRecovery) {
  uint64_t first_id = 0;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    auto leases = d->rm().ListLeases();
    ASSERT_EQ(leases.size(), 1u);
    first_id = leases[0].id;
    ASSERT_TRUE(d->Release(leases[0]).ok());
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok());
  auto lease = (*d)->Acquire(kBigJob);
  ASSERT_TRUE(lease.ok());
  EXPECT_GT(lease->id, first_id);
}

TEST_F(DurableTest, RemoveOperationsReplay) {
  std::string before;
  {
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    // Drop the Experience requirement; bob becomes eligible.
    ASSERT_TRUE(d->RemoveRequirementGroup(1).ok());
    before = Fingerprint(*d);
  }
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(DurableTest, SaveWorldRoundTripsAVolatileSession) {
  auto world = testutil::BuildPaperWorld();
  ASSERT_TRUE(world.ok());
  core::ResourceManager rm(world->org.get(), world->store.get());
  auto lease = rm.Acquire(
      "Select ContactInfo From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 5000 And Location = 'PA'");
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();

  ASSERT_TRUE(DurableResourceManager::SaveWorld(dir_, *world->org,
                                                *world->store, rm)
                  .ok());
  std::string before = Fingerprint(*world->org, *world->store, rm);

  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE((*d)->recovery_info().snapshot_loaded);
  // SaveWorld writes pages.db itself: a native home, nothing to migrate.
  EXPECT_FALSE((*d)->recovery_info().migrated_legacy);
  EXPECT_EQ(Fingerprint(**d), before);
}

TEST_F(DurableTest, CorruptSnapshotIsAnErrorNotSilentLoss) {
  {
    // A legacy home: the workload's state as a snapshot.dat beside the
    // home marker, waiting to be folded into pages.db.
    auto d = OpenWithWorkload();
    ASSERT_NE(d, nullptr);
    SnapshotData legacy;
    legacy.last_seq = d->last_seq();
    legacy.rdl_text = *org::DumpRdl(d->org());
    legacy.policy_image = d->store().ExportImage();
    legacy.leases = d->rm().ListLeases();
    legacy.next_lease_id = d->rm().next_lease_id();
    std::ofstream(dir_ + "/snapshot.dat", std::ios::binary)
        << EncodeSnapshot(legacy);
  }
  // Storage damage inside a committed snapshot must refuse to open —
  // guessing at policy state would enforce the wrong rules. The reopen
  // hits this through the migration read, which must be just as strict.
  auto size = std::filesystem::file_size(dir_ + "/snapshot.dat");
  std::fstream f(dir_ + "/snapshot.dat",
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.put('\xEE');
  f.close();

  auto d = DurableResourceManager::Open(dir_);
  EXPECT_FALSE(d.ok());
}

TEST_F(DurableTest, MetricsCoverWalSnapshotAndReplay) {
  obs::MetricsRegistry registry;
  DurableOptions options;
  options.rm_options.metrics = &registry;
  options.fsync_mode = FsyncMode::kAlways;
  {
    auto d = OpenWithWorkload(options);
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->Checkpoint().ok());
    EXPECT_EQ(registry.GetCounter("wfrm_store_wal_appends_total")->Value(),
              3u);
    EXPECT_GT(registry.GetCounter("wfrm_store_wal_bytes_total")->Value(), 0u);
    EXPECT_GE(registry.GetCounter("wfrm_store_wal_syncs_total")->Value(), 3u);
    EXPECT_EQ(registry.GetCounter("wfrm_store_snapshots_total")->Value(), 1u);
    EXPECT_EQ(
        registry.GetCounter("wfrm_store_wal_truncations_total")->Value(), 1u);
  }
  obs::MetricsRegistry reopen_registry;
  DurableOptions reopen;
  reopen.rm_options.metrics = &reopen_registry;
  auto d = DurableResourceManager::Open(dir_, reopen);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(
      reopen_registry.GetHistogram("wfrm_store_replay_micros", {})->Count(),
      1u);
}

// Durable Acquire enforces unlocked and claims under the home lock; the
// acquire counters keep their in-memory meanings across that split.
TEST_F(DurableTest, AcquireMetricsCountJournaledGrantsRacesAndResubmits) {
  obs::MetricsRegistry registry;
  DurableOptions options;
  options.rm_options.metrics = &registry;
  auto d = OpenWithWorkload(options);  // One grant: alice.
  ASSERT_NE(d, nullptr);
  auto count = [&registry](const std::string& name,
                           const obs::LabelMap& labels = {}) {
    return registry.GetCounter(name, labels)->Value();
  };
  auto once = [](std::function<void()> fn) {
    return [fn = std::move(fn), fired = false]() mutable {
      if (!fired) {
        fired = true;
        fn();
      }
    };
  };
  const org::ResourceRef alice{"Programmer", "alice"};
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "ok"}}), 1u);
  EXPECT_EQ(count("wfrm_rm_submits_total", {{"result", "ok"}}), 1u);
  ASSERT_TRUE(d->Release(alice).ok());

  // A policy mutation between the phases moves the answer generation:
  // the request is enforced again under the lock, one more Submit.
  d->TestSetBetweenAcquirePhases(once([&d] {
    ASSERT_TRUE(d->AddPolicyText("Require Programmer Where Location = 'PA' "
                                 "For Programming With NumberOfLines > 1;")
                    .ok());
  }));
  auto lease = d->Acquire(kBigJob);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(count("wfrm_rm_submits_total", {{"result", "ok"}}), 3u);
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "ok"}}), 2u);
  ASSERT_TRUE(d->Release(*lease).ok());

  // A nested Acquire between the phases takes the only candidate: the
  // outer claim round is lost (a race), its re-submit finds nothing
  // free (one failed acquire), and the nested grant counts ok.
  Result<core::Lease> nested = Status::Internal("hook did not run");
  d->TestSetBetweenAcquirePhases(
      once([&d, &nested] { nested = d->Acquire(kBigJob); }));
  auto lost = d->Acquire(kBigJob);
  d->TestSetBetweenAcquirePhases(nullptr);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->resource, alice);
  EXPECT_EQ(lost.status().code(), StatusCode::kResourceUnavailable);
  EXPECT_EQ(count("wfrm_rm_acquire_races_total"), 1u);
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "ok"}}), 3u);
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "failed"}}), 1u);
  ASSERT_TRUE(d->Release(*nested).ok());

  // A grant whose journal append fails is rolled back and counts failed.
  d->TestFailNextJournal(3);
  EXPECT_FALSE(d->Acquire(kBigJob).ok());
  EXPECT_FALSE(d->rm().IsAllocated(alice));
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "ok"}}), 3u);
  EXPECT_EQ(count("wfrm_rm_acquires_total", {{"result", "failed"}}), 2u);
}

}  // namespace
}  // namespace wfrm::store
