// Replication layer: WAL shipping, follower catch-up, fenced failover
// and degraded-mode serving (DESIGN.md §11).
//
// The centerpiece is a seeded chaos harness: ≥100 fault schedules, each
// one a different seed for the link's drop/duplicate/reorder draws and
// a different kill point for the primary. After every schedule the
// follower must hold exactly the primary's state (deadline-free
// fingerprint equality), promotion must fence the dead primary's
// shipper, and the promoted store must serve writes with the lease
// at-most-once invariant intact. The seed base is overridable via
// WFRM_CHAOS_SEED_BASE so CI can sweep disjoint schedules per job.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/fault_injector.h"
#include "core/resource_manager.h"
#include "store/durable_rm.h"
#include "store/record.h"
#include "store/replication.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "testutil/paper_org.h"
#include "testutil/repro.h"

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
      (ContactInfo = 'bob@x.com', Location = 'PA', Experience = 7);
)";

constexpr char kPolicies[] = R"(
  Qualify Programmer For Programming;
  Require Programmer Where Experience > 5
    For Programming With NumberOfLines > 10000;
)";

constexpr char kBigJob[] =
    "Select ContactInfo From Programmer Where Location = 'PA' "
    "For Programming With NumberOfLines = 20000 And Location = 'PA'";

std::string InsertStatement(int i) {
  std::string id = "p" + std::to_string(i);
  return "Insert Resource Programmer '" + id + "' (ContactInfo = '" + id +
         "@x.com', Location = 'PA', Experience = " + std::to_string(i % 20) +
         ");";
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_repl_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string Dir(const std::string& name) {
    std::string dir = root_ + "/" + name;
    std::filesystem::create_directories(dir);
    return dir;
  }

  std::unique_ptr<DurableResourceManager> OpenStore(const std::string& name,
                                                    SimulatedClock* clock) {
    DurableOptions options;
    options.fsync_mode = FsyncMode::kOff;
    options.rm_options.clock = clock;
    options.rm_options.lease_duration_micros = 1'000'000;
    auto d = DurableResourceManager::Open(Dir(name), options);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return d.ok() ? std::move(*d) : nullptr;
  }

  std::string root_;
};

/// One primary/follower pair over a (possibly chaotic) in-process link.
struct Cluster {
  SimulatedClock clock;  // Shared: deadline-free fingerprints don't care.
  std::unique_ptr<DurableResourceManager> primary;
  std::unique_ptr<DurableResourceManager> follower;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<InProcessTransport> link;
  std::unique_ptr<FaultInjectingTransport> chaos;
  std::unique_ptr<WalShipper> shipper;
};

TEST_F(ReplicationTest, FrameCodecRoundTrips) {
  ReplicationFrame frame;
  frame.type = FrameType::kSnapshotChunk;
  frame.epoch = 7;
  frame.seq = 42;
  frame.body = std::string("payload with \0 binary", 21);
  auto decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, frame.type);
  EXPECT_EQ(decoded->epoch, frame.epoch);
  EXPECT_EQ(decoded->seq, frame.seq);
  EXPECT_EQ(decoded->body, frame.body);

  std::string wire = EncodeFrame(frame);
  wire[wire.size() / 2] ^= 0x20;  // CRC must catch a flipped bit.
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(DecodeFrame(std::string_view(wire.data(), 5)).ok());
}

TEST_F(ReplicationTest, ShipsRecordsAndConverges) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);

  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
  auto lease = primary->Acquire(kBigJob);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  ASSERT_TRUE(shipper.Pump().ok());

  EXPECT_EQ(shipper.lag_records(), 0u);
  EXPECT_EQ(shipper.acked_seq(), primary->last_seq());
  EXPECT_EQ(follower->last_seq(), primary->last_seq());
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
            primary->StateFingerprint(/*include_deadlines=*/false));
  // The caught-up pump also probed for divergence — and found none.
  EXPECT_FALSE(shipper.divergence_detected());
  EXPECT_FALSE((*applier)->diverged());

  // The replicated lease is a real lease on the follower too.
  EXPECT_TRUE(follower->rm().IsAllocated(lease->resource));
}

TEST_F(ReplicationTest, SavedWorldBasisSeedsABlankFollower) {
  // A home written by SaveWorld carries its whole state in pages.db at
  // seq 0 — no WAL record reproduces it. Seq continuity alone would let
  // records 1..N apply cleanly onto a blank follower that never saw that
  // basis, silently forking the pair (and losing the policy base on
  // failover). First contact with a blank follower must therefore seed
  // it via catch-up before any record ships.
  auto world = testutil::BuildPaperWorld();
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  core::ResourceManager rm(world->org.get(), world->store.get());
  const std::string dir = Dir("saved");
  ASSERT_TRUE(DurableResourceManager::SaveWorld(dir, *world->org,
                                                *world->store, rm)
                  .ok());

  SimulatedClock clock;
  auto primary = OpenStore("saved", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->recovery_info().snapshot_loaded);
  // Post-save mutations give record shipping work beyond the basis.
  ASSERT_TRUE(primary
                  ->ExecuteRdl("Insert Resource Programmer 'postsave' "
                               "(ContactInfo = 'p@x.com', Location = 'PA', "
                               "Language = 'English', Experience = 9);")
                  .ok());

  auto follower = OpenStore("blank_follower", &clock);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);

  for (int i = 0; i < 20 && shipper.lag_records() != 0; ++i) {
    ASSERT_TRUE(shipper.Pump().ok());
  }
  ASSERT_TRUE(shipper.Pump().ok());  // Idle pump sends the mark probe.

  EXPECT_EQ(follower->last_seq(), primary->last_seq());
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
            primary->StateFingerprint(/*include_deadlines=*/false));
  EXPECT_FALSE(shipper.divergence_detected());
  EXPECT_FALSE((*applier)->diverged());
  // The saved basis really crossed (a resource only pages.db held), and
  // so did the post-save record.
  EXPECT_TRUE(follower->org().GetResource({"Engineer", "gail"}).ok());
  EXPECT_TRUE(
      follower->org().GetResource({"Programmer", "postsave"}).ok());
}

TEST_F(ReplicationTest, StandbyRejectsDirectMutationsTyped) {
  SimulatedClock clock;
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());

  EXPECT_TRUE(follower->degraded());
  Status st = follower->ExecuteRdl(kRdl);
  EXPECT_EQ(st.code(), StatusCode::kDegraded) << st.ToString();
  EXPECT_EQ(follower->Acquire(kBigJob).status().code(), StatusCode::kDegraded);
  EXPECT_EQ(follower->ReapExpired(), 0u);
  // Reads keep serving in every degraded state.
  EXPECT_TRUE(follower->rm().ListLeases().empty());
}

TEST_F(ReplicationTest, DuplicateAndGapFramesAckIdempotently) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(shipper.Pump().ok());
  const uint64_t at = follower->last_seq();
  ASSERT_GT(at, 0u);
  const std::string before =
      follower->StateFingerprint(/*include_deadlines=*/false);

  // A duplicate of an already-applied record: ack the position, change
  // nothing.
  Record dup;
  dup.seq = at;
  dup.type = RecordType::kRdl;
  dup.text = "Insert Resource Programmer 'ghost' (ContactInfo = 'g@x.com', "
             "Location = 'PA', Experience = 1);";
  ReplicationFrame frame;
  frame.type = FrameType::kRecord;
  frame.epoch = 1;
  frame.seq = at;
  frame.body = EncodeRecord(dup);
  auto ack = (*applier)->Deliver(frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(ack->gap);
  EXPECT_EQ(ack->last_applied, at);
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false), before);

  // A record from the future: nack with the seq the follower needs.
  frame.seq = at + 5;
  dup.seq = at + 5;
  frame.body = EncodeRecord(dup);
  ack = (*applier)->Deliver(frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->gap);
  EXPECT_EQ(ack->expected_seq, at + 1);
  EXPECT_EQ(follower->last_seq(), at);
}

TEST_F(ReplicationTest, SnapshotCatchupSeedsFreshFollower) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(i)).ok());
  }
  // The checkpoint truncates the WAL: the records a fresh follower needs
  // no longer exist as records, only inside the snapshot.
  ASSERT_TRUE(primary->Checkpoint().ok());
  // A post-checkpoint tail record must ride along after the snapshot.
  ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(99)).ok());

  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  WalShipperOptions options;
  options.snapshot_chunk_bytes = 64;  // Force a long, many-chunk stream.
  WalShipper shipper(primary.get(), &link, /*epoch=*/1, options);

  ASSERT_TRUE(shipper.Pump().ok());
  while (shipper.lag_records() != 0) ASSERT_TRUE(shipper.Pump().ok());
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
            primary->StateFingerprint(/*include_deadlines=*/false));
  EXPECT_EQ(follower->last_seq(), primary->last_seq());
}

TEST_F(ReplicationTest, FailedCatchupInstallKeepsFollowerServing) {
  // A catch-up install commits the shipped pages.db before it releases
  // the follower's engine. A commit that fails at its rename must leave
  // the follower exactly as it was; one that fails at the directory
  // fsync lands after the rename and must keep the WAL. Either way the
  // follower keeps serving, and the retried install converges.
  for (const char* op : {"rename", "dirsync"}) {
    SCOPED_TRACE(op);
    SimulatedClock clock;
    auto primary = OpenStore(std::string("primary_") + op, &clock);
    auto follower = OpenStore(std::string("follower_") + op, &clock);
    ASSERT_NE(primary, nullptr);
    ASSERT_NE(follower, nullptr);
    const std::string home = follower->dir();
    auto wal_records = [&home] {
      auto scan = ReadWal(home + "/wal.log");
      return scan.ok() ? scan->payloads.size() : 0;
    };
    auto applier = ReplicaApplier::Attach(follower.get());
    ASSERT_TRUE(applier.ok());
    InProcessTransport link(applier->get());
    WalShipper shipper(primary.get(), &link, /*epoch=*/1);

    // Unarmed: first contact seeds the blank follower (and writes
    // replica.meta through the same commit step), then a record ships.
    ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
    ASSERT_TRUE(shipper.Pump().ok());
    ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
    ASSERT_TRUE(shipper.Pump().ok());
    const size_t records = wal_records();
    ASSERT_GT(records, 0u);
    const std::string before =
        follower->StateFingerprint(/*include_deadlines=*/false);

    // The primary checkpoints past the follower: the next pump can only
    // catch it up by installing pages.db, and that commit fails once.
    ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(1)).ok());
    ASSERT_TRUE(primary->Checkpoint().ok());
    bool armed = true;
    SetCommitSnapshotFaultHook([&armed, op](std::string_view step) {
      if (!armed || step != op) return false;
      armed = false;
      return true;
    });
    Status pumped = shipper.Pump();
    SetCommitSnapshotFaultHook(nullptr);
    ASSERT_FALSE(pumped.ok());
    EXPECT_FALSE(armed);
    EXPECT_NE(pumped.message().find("pages.db: " + std::string(
                  std::strerror(EIO))), std::string::npos)
        << pumped.ToString();
    EXPECT_FALSE(std::filesystem::exists(home + "/pages.db.tmp"));
    EXPECT_EQ(wal_records(), records);
    if (std::string(op) == "rename") {
      EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
                before);
    } else {
      // The rename landed, so the world follows the shipped file.
      EXPECT_EQ(follower->last_seq(), primary->last_seq());
    }
    EXPECT_TRUE(follower->Checkpoint().ok());

    for (int i = 0; i < 10 && (shipper.lag_records() != 0 ||
                               follower->last_seq() != primary->last_seq());
         ++i) {
      ASSERT_TRUE(shipper.Pump().ok());
    }
    EXPECT_EQ(follower->last_seq(), primary->last_seq());
    EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
              primary->StateFingerprint(/*include_deadlines=*/false));
    EXPECT_TRUE(follower->org().GetResource({"Programmer", "p1"}).ok());
  }
}

TEST_F(ReplicationTest, PromotionFencesTheOldPrimary) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(shipper.Pump().ok());

  auto epoch = (*applier)->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GT(*epoch, 1u);
  EXPECT_TRUE((*applier)->promoted());
  EXPECT_FALSE(follower->degraded());
  ASSERT_TRUE(follower->ExecuteRdl(InsertStatement(1)).ok());

  // The demoted primary journals one more write its shipper then tries
  // to replicate: the follower's higher epoch rejects it, the shipper
  // latches fenced, and every later Pump fails typed without shipping.
  ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(2)).ok());
  const uint64_t follower_at = follower->last_seq();
  Status st = shipper.Pump();
  EXPECT_EQ(st.code(), StatusCode::kDegraded) << st.ToString();
  EXPECT_TRUE(shipper.fenced());
  EXPECT_EQ(follower->last_seq(), follower_at);  // Nothing forked in.
  EXPECT_EQ(shipper.Pump().code(), StatusCode::kDegraded);
}

TEST_F(ReplicationTest, PromotedEpochSurvivesReopen) {
  SimulatedClock clock;
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(follower, nullptr);
  uint64_t promoted_epoch = 0;
  {
    auto applier = ReplicaApplier::Attach(follower.get());
    ASSERT_TRUE(applier.ok());
    auto epoch = (*applier)->Promote();
    ASSERT_TRUE(epoch.ok());
    promoted_epoch = *epoch;
  }
  // A restart must come back at (at least) the promoted epoch, or the
  // demoted primary's frames would be accepted again and fork history.
  follower.reset();
  follower = OpenStore("follower", &clock);
  ASSERT_NE(follower, nullptr);
  auto again = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->epoch(), promoted_epoch);

  ReplicationFrame stale;
  stale.type = FrameType::kHeartbeat;
  stale.epoch = promoted_epoch - 1;
  auto ack = (*again)->Deliver(stale);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->stale_epoch);
  EXPECT_EQ(ack->epoch, promoted_epoch);
}

TEST_F(ReplicationTest, CheckpointMarkDetectsDivergence) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(shipper.Pump().ok());
  ASSERT_FALSE(shipper.divergence_detected());

  // Fork the follower behind the protocol's back: one local write it
  // was never shipped. Both nodes now sit at the same seq with
  // different state — exactly what the fingerprint probe exists for.
  follower->ExitStandby();
  ASSERT_TRUE(follower->ExecuteRdl(InsertStatement(1000)).ok());
  follower->EnterStandby();
  ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(2000)).ok());

  (void)shipper.Pump();  // Ships the record (deduped) + the mark.
  EXPECT_TRUE(shipper.divergence_detected());
  EXPECT_TRUE((*applier)->diverged());
}

TEST_F(ReplicationTest, PartitionDegradesAndHealingRestores) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  FaultInjectingTransport chaos(&link, /*faults=*/nullptr);
  WalShipperOptions options;
  options.partition_after_failures = 2;
  options.degrade_primary_on_partition = true;
  WalShipper shipper(primary.get(), &chaos, /*epoch=*/1, options);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(shipper.Pump().ok());

  chaos.SetPartitioned(true);
  EXPECT_FALSE(shipper.Pump().ok());
  EXPECT_FALSE(shipper.Pump().ok());
  EXPECT_TRUE(shipper.partitioned());
  // Strict mode: the primary itself went degraded — reads serve,
  // mutations fail fast with the typed status.
  EXPECT_TRUE(primary->degraded());
  EXPECT_EQ(primary->ExecuteRdl(InsertStatement(1)).code(),
            StatusCode::kDegraded);
  EXPECT_TRUE(primary->rm().ListLeases().empty());  // Reads keep serving.
  EXPECT_NE(primary->degraded_reason().find("partition"), std::string::npos);

  chaos.SetPartitioned(false);
  ASSERT_TRUE(shipper.Pump().ok());
  EXPECT_FALSE(shipper.partitioned());
  EXPECT_FALSE(primary->degraded());
  ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(1)).ok());
  ASSERT_TRUE(shipper.Pump().ok());
  EXPECT_EQ(shipper.lag_records(), 0u);
}

// ---- The chaos failover harness ---------------------------------------------

/// One seeded schedule: chaotic link, random kill point, failover.
void RunChaosSchedule(const std::string& root, uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);

  std::string primary_dir = root + "/p" + std::to_string(seed);
  std::string follower_dir = root + "/f" + std::to_string(seed);
  std::filesystem::create_directories(primary_dir);
  std::filesystem::create_directories(follower_dir);

  SimulatedClock clock;
  DurableOptions options;
  options.fsync_mode = FsyncMode::kOff;
  options.rm_options.clock = &clock;
  options.rm_options.lease_duration_micros = 1'000'000;
  auto p = DurableResourceManager::Open(primary_dir, options);
  auto f = DurableResourceManager::Open(follower_dir, options);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto primary = std::move(*p);
  auto follower = std::move(*f);

  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  InProcessTransport link(applier->get());
  core::FaultInjectorOptions fault_options;
  fault_options.seed = seed * 2654435761u + 1;
  fault_options.message_drop_rate = 0.15;
  fault_options.message_duplicate_rate = 0.10;
  fault_options.message_reorder_rate = 0.10;
  core::FaultInjector faults(fault_options);
  FaultInjectingTransport chaos(&link, &faults);
  WalShipperOptions ship_options;
  ship_options.snapshot_chunk_bytes = 256;  // Faults land mid-catch-up too.
  WalShipper shipper(primary.get(), &chaos, /*epoch=*/1, ship_options);

  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
  ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());

  // Traffic until the kill point, pumping the chaotic link as we go.
  // Send errors are retryable by design — the next pump resumes.
  const int total_ops = 24;
  const int kill_after = static_cast<int>(rng() % total_ops);
  std::vector<core::Lease> held;
  for (int op = 0; op < kill_after; ++op) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(op)).ok());
        break;
      case 3: {
        auto lease = primary->Acquire(kBigJob);
        if (lease.ok()) held.push_back(*lease);
        break;
      }
      case 4:
        if (!held.empty()) {
          (void)primary->Release(held.back());
          held.pop_back();
        }
        break;
      case 5:
        if (!held.empty()) {
          auto renewed = primary->RenewLease(held.front());
          if (renewed.ok()) held.front() = *renewed;
        }
        break;
      case 6:
        clock.AdvanceMicros(600'000);
        (void)primary->ReapExpired();
        break;
      case 7:
        // Checkpoints truncate the primary's WAL mid-flight, forcing the
        // shipper through the rescan / snapshot-catch-up path.
        ASSERT_TRUE(primary->Checkpoint().ok());
        break;
    }
    if (rng() % 2 == 0) (void)shipper.Pump();
  }

  // The primary dies here. Whatever reached the follower's ack horizon
  // is the surviving history; drain the link (faults still firing) so
  // the follower holds every record the primary journaled.
  for (int i = 0; i < 500 && shipper.lag_records() != 0; ++i) {
    (void)shipper.Pump();
  }
  ASSERT_EQ(shipper.lag_records(), 0u) << "link never converged";
  for (int i = 0; i < 50 && shipper.acked_seq() != 0 &&
                  !shipper.divergence_detected() &&
                  shipper.lag_records() == 0;
       ++i) {
    if (shipper.Pump().ok()) break;  // Heartbeat + checkpoint mark landed.
  }

  // Deterministic replay must have produced the primary's exact state
  // (modulo lease re-basing instants, hence deadline-free).
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
            primary->StateFingerprint(/*include_deadlines=*/false));
  EXPECT_FALSE(shipper.divergence_detected());
  EXPECT_FALSE((*applier)->diverged());

  // Failover: promote, then verify the old shipper is fenced out.
  auto epoch = (*applier)->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(9999)).ok());
  // The fencing discovery frame can itself be dropped by the chaotic
  // link; what is guaranteed is that the shipper fences before any
  // post-promotion frame mutates the follower.
  for (int i = 0; i < 200 && !shipper.fenced(); ++i) (void)shipper.Pump();
  EXPECT_TRUE(shipper.fenced());
  EXPECT_EQ(shipper.Pump().code(), StatusCode::kDegraded);
  primary.reset();  // The old primary is dead for real now.

  // The promoted store serves writes: an acquire may still lose to
  // enforcement (every qualified resource busy), but never to standby.
  ASSERT_FALSE(follower->degraded());
  auto lease = follower->Acquire(kBigJob);
  ASSERT_NE(lease.status().code(), StatusCode::kDegraded)
      << lease.status().ToString();
  ASSERT_TRUE(follower->ExecuteRdl(InsertStatement(10000)).ok());

  // ...and holds the at-most-once lease invariant: no resource is held
  // by two live leases, and the id high-water mark clears every id.
  std::map<std::pair<std::string, std::string>, int> holders;
  uint64_t max_id = 0;
  for (const core::Lease& l : follower->rm().ListLeases()) {
    ++holders[{l.resource.type, l.resource.id}];
    max_id = std::max(max_id, l.id);
  }
  for (const auto& [ref, count] : holders) {
    EXPECT_EQ(count, 1) << ref.first << "/" << ref.second
                        << " held by two leases after failover";
  }
  EXPECT_GT(follower->rm().next_lease_id(), max_id);

  std::error_code ec;
  std::filesystem::remove_all(primary_dir, ec);
  std::filesystem::remove_all(follower_dir, ec);
}

TEST_F(ReplicationTest, SeededChaosFailoverSchedules) {
  uint64_t seed_base = 0;
  if (const char* env = std::getenv("WFRM_CHAOS_SEED_BASE")) {
    seed_base = std::strtoull(env, nullptr, 10);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunChaosSchedule(root_, seed_base + i));
    if (::testing::Test::HasFailure()) {
      // A schedule is reproducible from its seed alone; drop the replay
      // recipe where CI uploads it (WFRM_REPRO_DIR).
      uint64_t seed = seed_base + i;
      testutil::WriteRepro(
          "replication-chaos-seed-" + std::to_string(seed) + ".txt",
          "suite: replication chaos\nseed: " + std::to_string(seed) +
              "\nreplay: WFRM_CHAOS_SEED_BASE=" + std::to_string(seed) +
              " ./wfrm_store_test "
              "--gtest_filter='*SeededChaosFailoverSchedules'\n");
      break;
    }
  }
}

// ---- Concurrency (TSan target) ----------------------------------------------

/// A mutator thread races the pump thread: the shipper tails wal.log
/// from disk while the primary appends to (and once truncates) it, and
/// the applier feeds the standby while nothing else touches it. Run
/// under TSan this is the data-race regression test for the whole
/// replication path.
TEST_F(ReplicationTest, ConcurrentMutationAndPumpConverge) {
  SimulatedClock clock;
  auto primary = OpenStore("primary", &clock);
  auto follower = OpenStore("follower", &clock);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(follower, nullptr);
  auto applier = ReplicaApplier::Attach(follower.get());
  ASSERT_TRUE(applier.ok());
  InProcessTransport link(applier->get());
  WalShipper shipper(primary.get(), &link, /*epoch=*/1);
  ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());

  std::atomic<bool> done{false};
  std::thread mutator([&] {
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(primary->ExecuteRdl(InsertStatement(i)).ok());
      if (i == 40) {
        ASSERT_TRUE(primary->Checkpoint().ok());
      }
    }
    done.store(true);
  });
  std::thread pumper([&] {
    while (!done.load()) {
      ASSERT_TRUE(shipper.Pump().ok());
    }
  });
  mutator.join();
  pumper.join();

  while (shipper.lag_records() != 0) ASSERT_TRUE(shipper.Pump().ok());
  ASSERT_TRUE(shipper.Pump().ok());  // Idle: heartbeat + divergence probe.
  EXPECT_EQ(follower->StateFingerprint(/*include_deadlines=*/false),
            primary->StateFingerprint(/*include_deadlines=*/false));
  EXPECT_FALSE(shipper.divergence_detected());
}

}  // namespace
}  // namespace wfrm::store
