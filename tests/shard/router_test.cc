// ShardRouter: routed mutations, scatter/gather partial failure, retry
// across failover (at-most-once), and per-shard epoch isolation
// (DESIGN.md §12).

#include "shard/shard_router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "store/durable_rm.h"

namespace wfrm::shard {
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
  std::string id = "p";
  id += std::to_string(i);
  return "Insert Resource Programmer '" + id + "' (ContactInfo = '" + id +
         "@x.com', Location = 'PA', Experience = " + std::to_string(i % 20) +
         ");";
}

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_shard_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// Opens a `num_shards` cluster + map and seeds every shard with the
  /// paper world so enforcement works everywhere.
  void OpenCluster(size_t num_shards) {
    ShardClusterOptions options;
    options.num_shards = num_shards;
    options.durable.fsync_mode = store::FsyncMode::kOff;
    options.durable.rm_options.clock = &clock_;
    options.durable.rm_options.lease_duration_micros = 1'000'000;
    auto cluster = ShardCluster::Open(root_ + "/cluster", options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    map_ = std::make_unique<ShardMap>(num_shards);
    for (ShardId s = 0; s < num_shards; ++s) {
      auto primary = cluster_->Primary(s);
      ASSERT_NE(primary, nullptr);
      ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
      ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
    }
  }

  /// A tenant name whose routing key lands on `shard`.
  std::string TenantOn(ShardId shard) const {
    for (int i = 0; i < 10'000; ++i) {
      std::string key = "tenant" + std::to_string(i);
      if (map_->Resolve(key) == shard) return key;
    }
    ADD_FAILURE() << "no tenant found for shard " << shard;
    return "";
  }

  std::string root_;
  SimulatedClock clock_;
  std::unique_ptr<ShardCluster> cluster_;
  std::unique_ptr<ShardMap> map_;
};

TEST_F(ShardRouterTest, RoutesMutationsToHomeShard) {
  OpenCluster(2);
  ShardRouterOptions options;
  options.clock = &clock_;
  ShardRouter router(cluster_.get(), map_.get(), options);

  const std::string t0 = TenantOn(0);
  const std::string t1 = TenantOn(1);
  const uint64_t seq0 = cluster_->Primary(0)->last_seq();
  const uint64_t seq1 = cluster_->Primary(1)->last_seq();

  ASSERT_TRUE(router.ExecuteRdl(t0, InsertStatement(100)).ok());
  ASSERT_TRUE(router.ExecuteRdl(t0, InsertStatement(101)).ok());
  EXPECT_EQ(cluster_->Primary(0)->last_seq(), seq0 + 2);
  EXPECT_EQ(cluster_->Primary(1)->last_seq(), seq1) << "write leaked to 1";

  ASSERT_TRUE(router.ExecuteRdl(t1, InsertStatement(102)).ok());
  EXPECT_EQ(cluster_->Primary(1)->last_seq(), seq1 + 1);
  EXPECT_EQ(cluster_->Primary(0)->last_seq(), seq0 + 2);
}

// Satellite: kDegraded must flow through EnforceBatch as per-item typed
// results — a degraded shard fails its own items, healthy shards answer
// normally in the same batch.
TEST_F(ShardRouterTest, BatchMixesHealthyAndDegradedShards) {
  OpenCluster(2);
  ShardRouterOptions options;
  options.clock = &clock_;
  ShardRouter router(cluster_.get(), map_.get(), options);

  const std::string t0 = TenantOn(0);
  const std::string t1 = TenantOn(1);
  ASSERT_TRUE(cluster_->SetPartitioned(1, true).ok());

  std::vector<BatchItem> items = {
      {t0, kBigJob}, {t1, kBigJob}, {t0, kBigJob}, {t1, kBigJob}};
  auto results = router.EnforceBatch(items);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i : {0u, 2u}) {
    EXPECT_EQ(results[i].shard, 0u);
    ASSERT_TRUE(results[i].outcome.ok())
        << results[i].outcome.status().ToString();
    EXPECT_TRUE(results[i].outcome->status.ok());
  }
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(results[i].shard, 1u);
    ASSERT_FALSE(results[i].outcome.ok());
    EXPECT_EQ(results[i].outcome.status().code(), StatusCode::kDegraded)
        << results[i].outcome.status().ToString();
    EXPECT_NE(results[i].outcome.status().ToString().find("partitioned"),
              std::string::npos)
        << "typed refusal should carry the shard's degraded reason";
  }

  // Healing the shard heals the batch — no sticky poisoning.
  ASSERT_TRUE(cluster_->SetPartitioned(1, false).ok());
  auto healed = router.EnforceBatch(items);
  for (const auto& r : healed) {
    ASSERT_TRUE(r.outcome.ok()) << r.outcome.status().ToString();
  }
}

TEST_F(ShardRouterTest, BatchDeadlineFailsOnlyTheLateShard) {
  OpenCluster(2);
  ShardRouterOptions options;
  // Real clock: the gather deadline is wall time.
  options.shard_deadline_micros = 40'000;
  ShardRouter router(cluster_.get(), map_.get(), options);

  const std::string t0 = TenantOn(0);
  const std::string t1 = TenantOn(1);
  router.InjectShardStallForTest(1, 400'000);

  std::vector<BatchItem> items = {{t0, kBigJob}, {t1, kBigJob}};
  auto results = router.EnforceBatch(items);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].outcome.ok())
      << results[0].outcome.status().ToString();
  ASSERT_FALSE(results[1].outcome.ok());
  EXPECT_EQ(results[1].outcome.status().code(),
            StatusCode::kResourceUnavailable);
  EXPECT_NE(results[1].outcome.status().ToString().find("deadline"),
            std::string::npos);
  EXPECT_EQ(router.deadline_misses(), 1u);

  // The abandoned group finishes harmlessly; once the stall is lifted
  // (and the abandoned task has drained off the shard's executor) the
  // shard answers again.
  router.InjectShardStallForTest(1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  auto again = router.EnforceBatch(items);
  for (const auto& r : again) {
    ASSERT_TRUE(r.outcome.ok()) << r.outcome.status().ToString();
  }
}

// Satellite: a lease acquire routed to a shard that fails over
// mid-request. The retry must re-resolve to the promoted primary and
// the grant must happen at most once.
TEST_F(ShardRouterTest, AcquireRetriesAcrossMidRequestFailover) {
  OpenCluster(2);
  ShardRouterOptions options;
  // Real clock + tight decorrelated backoff: the acquire thread probes
  // while the main thread fails the shard over under it.
  options.retry = RetryPolicy::Decorrelated(/*max_attempts=*/200,
                                            /*initial_micros=*/2'000,
                                            /*max_micros=*/10'000);
  ShardRouter router(cluster_.get(), map_.get(), options);

  const std::string tenant = TenantOn(0);
  const size_t allocated_before = cluster_->Primary(0)->rm().num_allocated();

  // Standby fully caught up, then wedge the primary: every mutation now
  // fails typed kDegraded (refused before journaling), which is the
  // only store outcome the router may retry.
  ASSERT_TRUE(cluster_->Drain(0).ok());
  ASSERT_TRUE(cluster_->SetPartitioned(0, true).ok());

  std::thread acquirer([&] {
    auto lease = router.Acquire(tenant, kBigJob);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE(lease->valid());
    // Exactly one grant exists, on the promoted primary.
    EXPECT_EQ(cluster_->Primary(0)->rm().num_allocated(),
              allocated_before + 1);
    EXPECT_TRUE(router.Release(tenant, *lease).ok());
  });

  // Let a few refused attempts happen, then promote the standby. The
  // next retry re-resolves to the promoted store and must be the first
  // and only attempt that grants.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto epoch = cluster_->Failover(0, ShardCluster::FailoverMode::kKillPrimary);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  acquirer.join();

  EXPECT_GE(router.retries(), 1u);
  EXPECT_FALSE(cluster_->degraded(0));
  EXPECT_EQ(cluster_->Primary(0)->rm().num_allocated(), allocated_before);
}

// Tentpole invariant: one tenant's mutation burst bumps only its own
// shard's enforcement epoch — other shards' caches stay warm.
TEST_F(ShardRouterTest, MutationsOnOneShardLeaveOtherShardsCachesWarm) {
  OpenCluster(2);
  ShardRouterOptions options;
  options.clock = &clock_;
  ShardRouter router(cluster_.get(), map_.get(), options);

  const std::string t0 = TenantOn(0);
  const std::string t1 = TenantOn(1);

  // Warm shard 1's enforcement cache.
  ASSERT_TRUE(router.Enforce(t1, kBigJob).ok());
  ASSERT_TRUE(router.Enforce(t1, kBigJob).ok());
  const auto warm = router.ShardStats(1);
  // The repeated query is served from a cache — the rewrite cache
  // short-circuits first; the retrieval cache backs it up.
  EXPECT_GT(warm.cache_hits + warm.rewrite_cache_hits, 0u);
  const uint64_t epoch0 = router.ShardEpoch(0);
  const uint64_t epoch1 = router.ShardEpoch(1);

  // Tenant 0 hammers its shard with policy/world mutations.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(router.ExecuteRdl(t0, InsertStatement(200 + i)).ok());
  }
  ASSERT_TRUE(
      router
          .AddPolicyText(t0, "Qualify Employee For Activity;")
          .ok());

  EXPECT_GT(router.ShardEpoch(0), epoch0);
  EXPECT_EQ(router.ShardEpoch(1), epoch1)
      << "shard 0 mutations must not touch shard 1's epoch";

  // Shard 1 keeps hitting its warm cache: no cross-shard invalidation.
  ASSERT_TRUE(router.Enforce(t1, kBigJob).ok());
  const auto after = router.ShardStats(1) - warm;
  EXPECT_GT(after.cache_hits + after.rewrite_cache_hits, 0u);
  EXPECT_EQ(after.cache_invalidations, 0u);
  EXPECT_EQ(after.epoch, epoch1);
}

TEST_F(ShardRouterTest, ReadOnDegradedOptionServesStaleReads) {
  OpenCluster(2);
  ShardRouterOptions strict;
  strict.clock = &clock_;
  ShardRouter strict_router(cluster_.get(), map_.get(), strict);
  ShardRouterOptions lax = strict;
  lax.read_on_degraded = true;
  ShardRouter lax_router(cluster_.get(), map_.get(), lax);

  const std::string t1 = TenantOn(1);
  ASSERT_TRUE(cluster_->SetPartitioned(1, true).ok());

  auto refused = strict_router.Enforce(t1, kBigJob);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDegraded);

  auto served = lax_router.Enforce(t1, kBigJob);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->status.ok());

  // Mutations stay refused regardless — read_on_degraded is read-only.
  EXPECT_EQ(lax_router.ExecuteRdl(t1, InsertStatement(300)).code(),
            StatusCode::kDegraded);
}

// Routed reads hold the home's world lock shared: a catch-up install
// swaps the whole world (org, store, manager and its prepared entries)
// under the exclusive lock, so a read racing it either finishes on the
// old world or starts on the new one, never on a freed one. Run under
// TSan/ASan in CI; without the lock both report the reads.
class RouterConcurrencyTest : public ShardRouterTest {};

TEST_F(RouterConcurrencyTest, RoutedReadsRaceWorldInstalls) {
  OpenCluster(1);
  ShardRouterOptions options;
  options.clock = &clock_;
  ShardRouter router(cluster_.get(), map_.get(), options);
  const std::string tenant = TenantOn(0);
  auto primary = cluster_->Primary(0);
  auto image = primary->CaptureCatchupImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  auto answered = [](const Result<core::QueryOutcome>& r) {
    return r.ok() && r->ok() && r->candidates.size() == 2;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    while (!stop.load()) {
      if (!answered(router.Enforce(tenant, kBigJob))) ++bad;
      ++reads;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  readers.emplace_back([&] {
    const std::vector<BatchItem> batch = {{tenant, kBigJob}, {tenant, kBigJob}};
    while (!stop.load()) {
      for (const BatchItemResult& r : router.EnforceBatch(batch)) {
        if (!answered(r.outcome)) ++bad;
      }
      ++reads;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(primary->InstallPagedImage(image->bytes).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace wfrm::shard
