// Multi-shard chaos harness (DESIGN.md §12).
//
// Each seeded schedule drives a 4-shard cluster through independent
// failure events — kills, demotions, partitions, rebalances,
// checkpoints — on chaotic per-shard replication links, while tenants
// keep mutating, enforcing and leasing through the router. One shard is
// designated untouched (no admin events ever hit it): its reads must
// succeed after every single event, proving shard independence. After
// the schedule every shard must converge: standby fingerprint equal to
// the primary's (deadline-free), no divergence latched, demoted
// primaries fenced, and every surviving lease releasable exactly once.
// The seed base is overridable via WFRM_CHAOS_SEED_BASE so CI sweeps
// disjoint schedules per job.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/fault_injector.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "store/durable_rm.h"
#include "testutil/repro.h"

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

constexpr size_t kShards = 4;

class ShardChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_shchaos_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string root_;
};

std::string TenantOn(const ShardMap& map, ShardId shard) {
  for (int i = 0; i < 10'000; ++i) {
    std::string key = "tenant" + std::to_string(i);
    if (map.Resolve(key) == shard) return key;
  }
  ADD_FAILURE() << "no tenant found for shard " << shard;
  return "";
}

/// Heals + re-pairs + drains `shard`, then demands fingerprint equality
/// between its primary and standby.
void ConvergeAndVerify(ShardCluster* cluster, ShardId shard,
                       bool* had_standby) {
  SCOPED_TRACE("converge shard " + std::to_string(shard));
  ASSERT_FALSE(cluster->Primary(shard) == nullptr);
  if (cluster->StatusOf(shard).partitioned) {
    ASSERT_TRUE(cluster->SetPartitioned(shard, false).ok());
  }
  if (!*had_standby) {
    ASSERT_TRUE(cluster->AttachStandby(shard).ok());
    *had_standby = true;
  }
  Status drained = cluster->Drain(shard, /*max_pumps=*/3000);
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  const ShardStatus status = cluster->StatusOf(shard);
  EXPECT_FALSE(status.diverged) << "shard " << shard << " diverged";
  auto primary = cluster->Primary(shard);
  auto standby = cluster->Standby(shard);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(standby, nullptr);
  EXPECT_EQ(primary->StateFingerprint(/*include_deadlines=*/false),
            standby->StateFingerprint(/*include_deadlines=*/false))
      << "shard " << shard << " standby does not mirror its primary";
}

void RunShardChaosSchedule(const std::string& root, uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);

  SimulatedClock clock;
  std::vector<std::unique_ptr<core::FaultInjector>> injectors;
  std::vector<core::FaultInjector*> links;
  for (size_t s = 0; s < kShards; ++s) {
    core::FaultInjectorOptions fault_options;
    fault_options.seed = seed * 2654435761u + s;
    fault_options.message_drop_rate = 0.10;
    fault_options.message_duplicate_rate = 0.08;
    fault_options.message_reorder_rate = 0.08;
    injectors.push_back(std::make_unique<core::FaultInjector>(fault_options));
    links.push_back(injectors.back().get());
  }

  ShardClusterOptions cluster_options;
  cluster_options.num_shards = kShards;
  cluster_options.durable.fsync_mode = store::FsyncMode::kOff;
  cluster_options.durable.rm_options.clock = &clock;
  // Leases never expire: the simulated clock advances through retry
  // backoff, and expiry would make the release accounting seed-
  // dependent in a way that proves nothing about sharding.
  cluster_options.durable.rm_options.lease_duration_micros = 0;
  cluster_options.link_faults = links;
  auto opened =
      ShardCluster::Open(root + "/c" + std::to_string(seed), cluster_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardCluster* cluster = opened->get();

  ShardMap map(kShards);
  ShardRouterOptions router_options;
  router_options.clock = &clock;  // Backoff replays instantly.
  router_options.retry = RetryPolicy::Decorrelated(
      /*max_attempts=*/6, /*initial_micros=*/1000, /*max_micros=*/8000);
  ShardRouter router(cluster, &map, router_options);

  std::vector<std::string> tenants;
  for (size_t s = 0; s < kShards; ++s) {
    auto primary = cluster->Primary(s);
    ASSERT_NE(primary, nullptr);
    ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
    ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
    tenants.push_back(TenantOn(map, s));
  }

  const ShardId untouched = static_cast<ShardId>(rng() % kShards);
  SCOPED_TRACE("untouched shard " + std::to_string(untouched));
  auto touchable = [&] {
    ShardId s;
    do {
      s = static_cast<ShardId>(rng() % kShards);
    } while (s == untouched);
    return s;
  };

  std::vector<bool> has_standby(kShards, true);
  std::vector<std::pair<std::string, core::Lease>> held;
  std::vector<uint64_t> min_epoch(kShards, 1);
  int next_insert = 0;

  /// Makes `s` promotable: heal its link, restore a standby pair if a
  /// previous event consumed it, and drain so promotion loses nothing.
  auto prepare_promotion = [&](ShardId s) {
    if (cluster->StatusOf(s).partitioned) {
      ASSERT_TRUE(cluster->SetPartitioned(s, false).ok());
    }
    if (!has_standby[s]) {
      ASSERT_TRUE(cluster->AttachStandby(s).ok());
      has_standby[s] = true;
    }
    Status drained = cluster->Drain(s, /*max_pumps=*/3000);
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  };

  const int kEvents = 16;
  for (int event = 0; event < kEvents; ++event) {
    SCOPED_TRACE("event " + std::to_string(event));
    switch (rng() % 12) {
      case 0:
      case 1:
      case 2: {  // Mutation through the router (any shard).
        const ShardId s = static_cast<ShardId>(rng() % kShards);
        Status st = router.ExecuteRdl(tenants[s], InsertStatement(
                                                      1000 + next_insert++));
        // A degraded home refuses typed; anything else is a bug.
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDegraded)
            << st.ToString();
        break;
      }
      case 3: {  // Cross-shard batch: partial failure never poisons it.
        std::vector<BatchItem> items;
        for (size_t s = 0; s < kShards; ++s) {
          items.push_back({tenants[s], kBigJob});
        }
        auto results = router.EnforceBatch(items);
        ASSERT_EQ(results.size(), items.size());
        for (size_t s = 0; s < kShards; ++s) {
          const Status st = results[s].outcome.status();
          ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDegraded)
              << "shard " << s << ": " << st.ToString();
          if (results[s].shard == untouched) {
            ASSERT_TRUE(st.ok()) << "untouched shard refused: "
                                 << st.ToString();
          }
        }
        break;
      }
      case 4: {  // Lease acquire (tracked for the release accounting).
        const ShardId s = static_cast<ShardId>(rng() % kShards);
        auto lease = router.Acquire(tenants[s], kBigJob);
        if (lease.ok()) {
          held.emplace_back(tenants[s], *lease);
        } else {
          const Status st = lease.status();
          ASSERT_TRUE(st.code() == StatusCode::kDegraded ||
                      st.code() == StatusCode::kResourceUnavailable)
              << st.ToString();
        }
        break;
      }
      case 5: {  // Release one held lease (kept on typed refusal).
        if (held.empty()) break;
        const size_t pick = rng() % held.size();
        Status st = router.Release(held[pick].first, held[pick].second);
        if (st.ok()) {
          held.erase(held.begin() + static_cast<ptrdiff_t>(pick));
        } else {
          ASSERT_EQ(st.code(), StatusCode::kDegraded) << st.ToString();
        }
        break;
      }
      case 6: {  // Background replication progress.
        for (int i = 0; i < 8; ++i) cluster->PumpAll();
        break;
      }
      case 7: {  // Partition a shard's standby link.
        cluster->SetPartitioned(touchable(), true);
        break;
      }
      case 8: {  // Heal a partition.
        const ShardId s = touchable();
        if (cluster->StatusOf(s).partitioned) {
          ASSERT_TRUE(cluster->SetPartitioned(s, false).ok());
        }
        break;
      }
      case 9: {  // Checkpoint (also exercises snapshot catch-up).
        const ShardId s = touchable();
        Status st = cluster->Checkpoint(s);
        ASSERT_TRUE(st.ok()) << st.ToString();
        break;
      }
      case 10: {  // Failover: kill or demote+fence, then re-pair.
        const ShardId s = touchable();
        prepare_promotion(s);
        if (::testing::Test::HasFatalFailure()) return;
        const bool demote = (rng() % 2) == 0;
        auto epoch = cluster->Failover(
            s, demote ? ShardCluster::FailoverMode::kDemotePrimary
                      : ShardCluster::FailoverMode::kKillPrimary);
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        ASSERT_GT(*epoch, min_epoch[s]) << "promotion must bump the epoch";
        min_epoch[s] = *epoch;
        has_standby[s] = false;
        if (demote) {
          // The demoted primary's shipper must hit the fence: its next
          // delivered frame meets a higher-epoch follower.
          bool fenced = false;
          for (int i = 0; i < 300 && !fenced; ++i) {
            cluster->PumpDemoted(s);
            fenced = cluster->DemotedFenced(s);
          }
          ASSERT_TRUE(fenced) << "demoted shard " << s << " never fenced";
        }
        ASSERT_TRUE(cluster->AttachStandby(s).ok());
        has_standby[s] = true;
        break;
      }
      default: {  // Rebalance onto a fresh home.
        const ShardId s = touchable();
        prepare_promotion(s);
        if (::testing::Test::HasFatalFailure()) return;
        const uint64_t moved_before = cluster->StatusOf(s).rebalance_records;
        auto epoch = cluster->Rebalance(s);
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        ASSERT_GT(*epoch, min_epoch[s]);
        min_epoch[s] = *epoch;
        ASSERT_GT(cluster->StatusOf(s).rebalance_records, moved_before)
            << "a rebalance must account the state it moved";
        has_standby[s] = false;
        ASSERT_TRUE(cluster->AttachStandby(s).ok());
        has_standby[s] = true;
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;

    // Shard independence, the tentpole invariant: whatever just
    // happened to other shards, the untouched shard answers.
    auto probe = router.Enforce(tenants[untouched], kBigJob);
    ASSERT_TRUE(probe.ok())
        << "untouched shard stopped serving after event " << event << ": "
        << probe.status().ToString();
    // Held leases may legitimately exhaust the small resource pool;
    // what must never happen on an untouched shard is a typed refusal
    // or an error — the enforcement pipeline itself keeps answering.
    ASSERT_TRUE(probe->status.ok() ||
                probe->status.code() == StatusCode::kResourceUnavailable)
        << probe->status.ToString();
  }

  // Quiesce: every shard healthy, re-paired, converged, and mirroring
  // its standby exactly.
  for (ShardId s = 0; s < kShards; ++s) {
    bool standby_flag = has_standby[s];
    ConvergeAndVerify(cluster, s, &standby_flag);
    if (::testing::Test::HasFatalFailure()) return;
    has_standby[s] = standby_flag;
  }

  // At-most-once: every grant the router reported is releasable exactly
  // once — a double-granted resource would fail its first holder's
  // release with kNotAllocated.
  for (const auto& [tenant, lease] : held) {
    Status st = router.Release(tenant, lease);
    ASSERT_TRUE(st.ok()) << "lease on tenant " << tenant
                         << " not releasable: " << st.ToString();
  }
  for (ShardId s = 0; s < kShards; ++s) {
    auto primary = cluster->Primary(s);
    ASSERT_NE(primary, nullptr);
    EXPECT_EQ(primary->rm().num_allocated(), 0u)
        << "shard " << s << " holds an unaccounted allocation";
  }
}

TEST_F(ShardChaosTest, SeededMultiShardChaosSchedules) {
  uint64_t seed_base = 0;
  if (const char* env = std::getenv("WFRM_CHAOS_SEED_BASE")) {
    seed_base = std::strtoull(env, nullptr, 10);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunShardChaosSchedule(root_, seed_base + i));
    if (::testing::Test::HasFailure()) {
      // A schedule is reproducible from its seed alone; drop the replay
      // recipe where CI uploads it (WFRM_REPRO_DIR).
      uint64_t seed = seed_base + i;
      testutil::WriteRepro(
          "shard-chaos-seed-" + std::to_string(seed) + ".txt",
          "suite: shard chaos\nseed: " + std::to_string(seed) +
              "\nreplay: WFRM_CHAOS_SEED_BASE=" + std::to_string(seed) +
              " ./wfrm_shard_chaos_test "
              "--gtest_filter='*SeededMultiShardChaosSchedules' "
              "(base schedule " +
              std::to_string(seed) + ", window of 1 suffices)\n");
      break;
    }
  }
}

// ---- Concurrency (TSan target) ----------------------------------------------

/// Readers on untouched shards race admin events (partition, failover,
/// rebalance, checkpoint) and a mutator on a third shard. Run under
/// TSan this is the data-race regression test for the whole shard
/// layer: router executors, cluster topology swaps and replication all
/// interleave.
TEST_F(ShardChaosTest, ConcurrentReadsSurviveAdminOnOtherShard) {
  SimulatedClock clock;
  ShardClusterOptions cluster_options;
  cluster_options.num_shards = kShards;
  cluster_options.durable.fsync_mode = store::FsyncMode::kOff;
  cluster_options.durable.rm_options.clock = &clock;
  cluster_options.durable.rm_options.lease_duration_micros = 0;
  auto opened = ShardCluster::Open(root_ + "/tsan", cluster_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardCluster* cluster = opened->get();

  ShardMap map(kShards);
  ShardRouterOptions router_options;
  router_options.clock = &clock;
  ShardRouter router(cluster, &map, router_options);

  std::vector<std::string> tenants;
  for (size_t s = 0; s < kShards; ++s) {
    auto primary = cluster->Primary(s);
    ASSERT_NE(primary, nullptr);
    ASSERT_TRUE(primary->ExecuteRdl(kRdl).ok());
    ASSERT_TRUE(primary->AddPolicyText(kPolicies).ok());
    tenants.push_back(TenantOn(map, s));
  }

  constexpr ShardId kAdminShard = 0;
  constexpr ShardId kMutatorShard = 1;
  // Shards 2 and 3 are the untouched readers' homes.

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (ShardId s : {ShardId{2}, ShardId{3}}) {
    readers.emplace_back([&, s] {
      while (!done.load(std::memory_order_relaxed)) {
        auto outcome = router.Enforce(tenants[s], kBigJob);
        ASSERT_TRUE(outcome.ok()) << "untouched shard " << s << ": "
                                  << outcome.status().ToString();
      }
    });
  }

  std::thread mutator([&] {
    for (int i = 0; i < 60; ++i) {
      Status st = router.ExecuteRdl(tenants[kMutatorShard],
                                    InsertStatement(2000 + i));
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDegraded)
          << st.ToString();
    }
  });

  std::thread batcher([&] {
    std::vector<BatchItem> items;
    for (size_t s = 0; s < kShards; ++s) items.push_back({tenants[s], kBigJob});
    for (int i = 0; i < 40; ++i) {
      auto results = router.EnforceBatch(items);
      for (const auto& r : results) {
        const Status st = r.outcome.status();
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDegraded ||
                    st.code() == StatusCode::kResourceUnavailable)
            << st.ToString();
      }
    }
  });

  // Admin storm on shard 0, all while the readers watch shards 2/3.
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(cluster->SetPartitioned(kAdminShard, true).ok());
    ASSERT_TRUE(cluster->SetPartitioned(kAdminShard, false).ok());
    ASSERT_TRUE(cluster->Drain(kAdminShard, 3000).ok());
    auto epoch = cluster->Failover(
        kAdminShard, round % 2 == 0
                         ? ShardCluster::FailoverMode::kKillPrimary
                         : ShardCluster::FailoverMode::kDemotePrimary);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    ASSERT_TRUE(cluster->AttachStandby(kAdminShard).ok());
    ASSERT_TRUE(cluster->Checkpoint(kAdminShard).ok());
    auto rebalanced = cluster->Rebalance(kAdminShard);
    ASSERT_TRUE(rebalanced.ok()) << rebalanced.status().ToString();
    ASSERT_TRUE(cluster->AttachStandby(kAdminShard).ok());
  }

  mutator.join();
  batcher.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  // The admin shard itself ends healthy and convergent.
  bool has_standby = true;
  ConvergeAndVerify(cluster, kAdminShard, &has_standby);
  bool mutator_standby = true;
  ConvergeAndVerify(cluster, kMutatorShard, &mutator_standby);
}

}  // namespace
}  // namespace wfrm::shard
