// Seeded crash injection for the durable store. A deterministic
// workload runs to completion once (the "golden" run); a crash at any
// instant is then simulated by truncating a copy of its WAL at a
// randomized byte offset and reopening. The recovered state must equal
// a shadow model the test builds itself from the surviving pages.db +
// record prefix — an independent replay path, so a recovery bug and a
// matching shadow bug would have to coincide to hide.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "common/clock.h"
#include "core/resource_manager.h"
#include "org/rdl_dump.h"
#include "org/rdl_parser.h"
#include "policy/pl_dump.h"
#include "store/durable_rm.h"
#include "store/page_store.h"
#include "store/record.h"
#include "store/wal.h"

namespace wfrm::store {
namespace {

constexpr char kRdl[] = R"(
  Define Resource Type Employee
      (ContactInfo String, Location String, Experience Int);
  Define Resource Type Programmer Under Employee;
  Define Resource Type Analyst Under Employee;
  Define Activity Type Activity (Location String);
  Define Activity Type Programming Under Activity (NumberOfLines Int);
  Insert Resource Programmer 'alice'
      (ContactInfo = 'alice@x.com', Location = 'PA', Experience = 8);
  Insert Resource Programmer 'bob'
      (ContactInfo = 'bob@x.com', Location = 'PA', Experience = 7);
  Insert Resource Analyst 'cindy'
      (ContactInfo = 'cindy@x.com', Location = 'PA', Experience = 4);
)";

constexpr char kPolicies[] = R"(
  Qualify Programmer For Programming;
  Qualify Analyst For Programming;
  Require Programmer Where Experience > 5
    For Programming With NumberOfLines > 10000;
)";

constexpr char kBigJob[] =
    "Select ContactInfo From Programmer Where Location = 'PA' "
    "For Programming With NumberOfLines = 20000 And Location = 'PA'";

std::string FingerprintWorld(org::OrgModel& org, policy::PolicyStore& store,
                             core::ResourceManager& rm) {
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

/// Clock every recovered store and shadow model in this file reads:
/// recovery re-bases persisted lease lifetimes onto the recovering
/// clock, so both sides must see the same "now" (frozen at zero) for
/// their deadline fingerprints to be comparable.
SimulatedClock* RecoveryClock() {
  static SimulatedClock clock;
  return &clock;
}

DurableOptions RecoveryOptions() {
  DurableOptions options;
  options.rm_options.clock = RecoveryClock();
  return options;
}

/// The recovery contract for persisted leases (DESIGN.md §10): the
/// deadline field holds the remaining lifetime at journal time, which a
/// recovering process adds to its own clock.
core::Lease Rebased(core::Lease lease, int64_t now_micros) {
  if (lease.deadline_micros != core::Lease::kNoExpiry) {
    lease.deadline_micros += now_micros;
  }
  return lease;
}

/// Shadow model: reconstructs state from dir's pages.db + WAL using the
/// public codec only, mirroring the documented recovery contract
/// (DESIGN.md §10) rather than calling into DurableResourceManager.
struct Shadow {
  std::unique_ptr<org::OrgModel> org;
  std::unique_ptr<policy::PolicyStore> store;
  std::unique_ptr<core::ResourceManager> rm;

  std::string Fingerprint() { return FingerprintWorld(*org, *store, *rm); }
};

Shadow BuildShadow(const std::string& dir) {
  Shadow s;
  s.org = std::make_unique<org::OrgModel>();
  s.store = std::make_unique<policy::PolicyStore>(s.org.get());
  core::ResourceManagerOptions rm_options;
  rm_options.clock = RecoveryClock();
  s.rm = std::make_unique<core::ResourceManager>(s.org.get(), s.store.get(),
                                                 rm_options);
  const int64_t now = RecoveryClock()->NowMicros();

  uint64_t snapshot_seq = 0;
  bool have_snapshot = false;
  if (std::filesystem::exists(dir + "/pages.db")) {
    // The base image lives in the page store. Read it with PageStore
    // directly — still independent of the recovery path in
    // DurableResourceManager, which goes through lazy hydration.
    auto pages = PageStore::Open(dir + "/pages.db");
    EXPECT_TRUE(pages.ok()) << pages.status().ToString();
    if (!pages.ok()) return s;
    const PageStoreMeta meta = (*pages)->meta();
    if (meta.last_seq > 0) {
      auto rdl = (*pages)->LoadRdl();
      EXPECT_TRUE(rdl.ok()) << rdl.status().ToString();
      if (rdl.ok() && !rdl->empty()) {
        EXPECT_TRUE(org::ExecuteRdl(*rdl, s.org.get()).ok());
      }
      auto image = (*pages)->LoadImage();
      EXPECT_TRUE(image.ok()) << image.status().ToString();
      if (image.ok()) {
        EXPECT_TRUE(s.store->ImportImage(*image).ok());
      }
      auto leases = (*pages)->LoadLeases();
      EXPECT_TRUE(leases.ok()) << leases.status().ToString();
      if (leases.ok()) {
        for (const core::Lease& lease : *leases) {
          EXPECT_TRUE(s.rm->RestoreLease(Rebased(lease, now)).ok());
        }
      }
      s.rm->AdvanceLeaseId(meta.next_lease_id);
      snapshot_seq = meta.last_seq;
      have_snapshot = true;
    }
  }

  auto scan = ReadWal(dir + "/wal.log");
  EXPECT_TRUE(scan.ok());
  if (!scan.ok()) return s;
  for (const std::string& payload : scan->payloads) {
    auto record = DecodeRecord(payload);
    if (!record.ok()) break;
    if (have_snapshot && record->seq <= snapshot_seq) continue;
    // Replay reruns history; originally-failed operations fail the same
    // way again, so statuses are ignored exactly as recovery does.
    switch (record->type) {
      case RecordType::kRdl:
        (void)org::ExecuteRdl(record->text, s.org.get());
        break;
      case RecordType::kPl:
        (void)s.store->AddPolicyText(record->text);
        break;
      case RecordType::kRemoveQualification:
        (void)s.store->RemoveQualification(record->id);
        break;
      case RecordType::kRemoveRequirementGroup:
        (void)s.store->RemoveRequirementGroup(record->id);
        break;
      case RecordType::kRemoveSubstitutionGroup:
        (void)s.store->RemoveSubstitutionGroup(record->id);
        break;
      case RecordType::kLeaseAcquire:
      case RecordType::kLeaseRenew:
        (void)s.rm->RestoreLease(Rebased(record->lease, now));
        break;
      case RecordType::kLeaseRelease:
        (void)s.rm->Release(record->lease);
        break;
    }
  }
  return s;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_crash_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// The golden workload: every record type, a mid-script RDL failure
  /// (partial apply), a rejected policy, renew/release/reap traffic —
  /// and optionally a checkpoint in the middle. `crash_point` arms the
  /// checkpoint's crash seam: the mid-workload checkpoint then stops at
  /// that seam (paged: pages flushed but meta uncommitted, or meta
  /// committed but WAL untruncated) and the workload keeps journaling,
  /// exactly like a process whose checkpoint died partway.
  void RunWorkload(
      const std::string& dir, bool with_checkpoint,
      CheckpointCrashPoint crash_point = CheckpointCrashPoint::kNone) {
    SimulatedClock clock;
    DurableOptions options;
    options.fsync_mode = FsyncMode::kOff;  // Torn tails come from cuts.
    options.crash_point = crash_point;
    options.rm_options.clock = &clock;
    options.rm_options.lease_duration_micros = 1'000'000;
    auto d = DurableResourceManager::Open(dir, options);
    ASSERT_TRUE(d.ok()) << d.status().ToString();

    ASSERT_TRUE((*d)->ExecuteRdl(kRdl).ok());
    ASSERT_TRUE((*d)->AddPolicyText(kPolicies).ok());
    auto first = (*d)->Acquire(kBigJob);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = (*d)->Acquire(kBigJob);
    ASSERT_TRUE(second.ok());

    clock.AdvanceMicros(400'000);
    ASSERT_TRUE((*d)->RenewLease(*second).ok());
    ASSERT_TRUE((*d)->Release(*first).ok());

    if (with_checkpoint) {
      ASSERT_TRUE((*d)->Checkpoint().ok());
    }

    // A script that fails at its second statement still journals one
    // record whose replay reproduces the same partial apply.
    EXPECT_FALSE((*d)->ExecuteRdl("Insert Resource Programmer 'dave' "
                                  "(ContactInfo = 'dave@x.com', "
                                  "Location = 'PA', Experience = 9); "
                                  "Bogus Statement;")
                     .ok());
    EXPECT_FALSE((*d)->AddPolicyText("Require Nonsense").ok());

    ASSERT_TRUE((*d)
                    ->AddPolicyText("Require Programmer Where Experience > 8 "
                                    "For Programming "
                                    "With NumberOfLines > 90000;")
                    .ok());
    ASSERT_TRUE((*d)->RemoveRequirementGroup(1).ok());
    // Which of alice/bob the first Release freed depends on allocation
    // order; releasing bob by ref is a real release on one branch and a
    // NotAllocated on the other. Both journal a record (releases journal
    // before apply), and the no-op one replays as the same no-op.
    (void)(*d)->Release(org::ResourceRef{"Programmer", "bob"});
    auto third = (*d)->Acquire(kBigJob);
    ASSERT_TRUE(third.ok());

    clock.AdvanceMicros(2'000'000);  // Everything live is now expired.
    EXPECT_GT((*d)->ReapExpired(), 0u);
    auto fourth = (*d)->Acquire(kBigJob);
    ASSERT_TRUE(fourth.ok());
  }

  /// Simulates a kill: a directory holding the golden pages.db plus the
  /// first `cut` bytes of the golden WAL.
  std::string MakeCrashDir(const std::string& golden, size_t cut, int index) {
    std::string dir = root_ + "/crash" + std::to_string(index);
    std::filesystem::create_directories(dir);
    // The home marker survives any crash: it is written once at Open
    // and never truncated, so every simulated kill still has it.
    std::filesystem::copy_file(golden + "/store.meta", dir + "/store.meta");
    // Page-file commits are atomic by construction (copy-on-write + dual
    // meta slots), so a kill never tears pages.db — copying it whole
    // models every crash.
    std::filesystem::copy_file(golden + "/pages.db", dir + "/pages.db");
    std::ifstream in(golden + "/wal.log", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(dir + "/wal.log", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(
                                std::min(cut, bytes.size())));
    return dir;
  }

  std::string root_;
};

TEST_F(CrashRecoveryTest, SeededKillPointsRecoverToShadowModel) {
  // 100 randomized cuts per scenario = 200 kill points total, covering
  // WAL-only recovery and checkpoint+tail recovery.
  for (bool with_checkpoint : {false, true}) {
    std::string golden =
        root_ + (with_checkpoint ? "/golden_ckpt" : "/golden");
    ASSERT_NO_FATAL_FAILURE(RunWorkload(golden, with_checkpoint));

    auto wal_size =
        static_cast<size_t>(std::filesystem::file_size(golden + "/wal.log"));
    ASSERT_GT(wal_size, 0u);

    std::mt19937 rng(with_checkpoint ? 0x19990106 : 0x20260806);
    for (int i = 0; i < 100; ++i) {
      // Always include the two edge cuts; otherwise anywhere in the log.
      size_t cut = i == 0 ? 0
                 : i == 1 ? wal_size
                          : rng() % (wal_size + 1);
      std::string dir =
          MakeCrashDir(golden, cut, i + (with_checkpoint ? 1000 : 0));

      Shadow shadow = BuildShadow(dir);
      std::string expected = shadow.Fingerprint();

      auto d = DurableResourceManager::Open(dir, RecoveryOptions());
      ASSERT_TRUE(d.ok()) << "cut=" << cut << ": " << d.status().ToString();
      std::string actual =
          FingerprintWorld((*d)->org(), (*d)->store(), (*d)->rm());
      ASSERT_EQ(actual, expected)
          << "divergence at cut=" << cut
          << " with_checkpoint=" << with_checkpoint;

      // Recovery must leave a writable log: mutate, reopen, verify the
      // mutation stuck (spot-checked to keep the loop fast).
      if (i % 20 == 0) {
        // Self-contained script: must work even at cut=0, where the
        // recovered org has no type definitions yet.
        ASSERT_TRUE((*d)
                        ->ExecuteRdl("Define Resource Type ProbeType (X Int);"
                                     "Insert Resource ProbeType 'probe' "
                                     "(X = 1);")
                        .ok());
        std::string with_probe =
            FingerprintWorld((*d)->org(), (*d)->store(), (*d)->rm());
        d->reset();  // Close before reopening the same directory.
        auto again = DurableResourceManager::Open(dir, RecoveryOptions());
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(FingerprintWorld((*again)->org(), (*again)->store(),
                                   (*again)->rm()),
                  with_probe)
            << "post-recovery mutation lost at cut=" << cut;
      }
    }
  }
}

TEST_F(CrashRecoveryTest, SeededPagedCheckpointSeamKillPoints) {
  // 50 randomized WAL cuts behind each paged checkpoint seam = 100 more
  // kill points, landing inside the page flush (pages written, meta
  // uncommitted — reopen must fall back to the previous generation) and
  // inside the checkpoint commit (meta durable, WAL untruncated —
  // replay must skip every record the pages already contain).
  struct Seam {
    CheckpointCrashPoint point;
    uint32_t seed;
    int base;
  };
  for (const Seam& seam :
       {Seam{CheckpointCrashPoint::kBeforeMetaCommit, 0x19990107, 2000},
        Seam{CheckpointCrashPoint::kBeforeWalTruncate, 0x20260807, 3000}}) {
    std::string golden = root_ + "/golden_seam" + std::to_string(seam.base);
    ASSERT_NO_FATAL_FAILURE(
        RunWorkload(golden, /*with_checkpoint=*/true, seam.point));
    ASSERT_TRUE(std::filesystem::exists(golden + "/pages.db"));

    auto wal_size =
        static_cast<size_t>(std::filesystem::file_size(golden + "/wal.log"));
    ASSERT_GT(wal_size, 0u);

    std::mt19937 rng(seam.seed);
    for (int i = 0; i < 50; ++i) {
      size_t cut = i == 0 ? 0
                 : i == 1 ? wal_size
                          : rng() % (wal_size + 1);
      std::string dir = MakeCrashDir(golden, cut, seam.base + i);

      Shadow shadow = BuildShadow(dir);
      std::string expected = shadow.Fingerprint();

      auto d = DurableResourceManager::Open(dir, RecoveryOptions());
      ASSERT_TRUE(d.ok()) << "cut=" << cut << ": " << d.status().ToString();
      std::string actual =
          FingerprintWorld((*d)->org(), (*d)->store(), (*d)->rm());
      ASSERT_EQ(actual, expected)
          << "divergence at cut=" << cut << " seam=" << seam.base;
    }
  }
}

TEST_F(CrashRecoveryTest, BitCorruptedTailRecoversLongestValidPrefix) {
  std::string golden = root_ + "/golden";
  ASSERT_NO_FATAL_FAILURE(RunWorkload(golden, /*with_checkpoint=*/false));

  std::ifstream in(golden + "/wal.log", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::mt19937 rng(7);
  for (int i = 0; i < 8; ++i) {
    std::string dir = root_ + "/flip" + std::to_string(i);
    std::filesystem::create_directories(dir);
    std::filesystem::copy_file(golden + "/store.meta", dir + "/store.meta");
    std::string damaged = bytes;
    size_t at = rng() % damaged.size();
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    {
      std::ofstream out(dir + "/wal.log", std::ios::binary);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    Shadow shadow = BuildShadow(dir);
    auto d = DurableResourceManager::Open(dir, RecoveryOptions());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(FingerprintWorld((*d)->org(), (*d)->store(), (*d)->rm()),
              shadow.Fingerprint())
        << "flip at byte " << at;
  }
}

}  // namespace
}  // namespace wfrm::store
