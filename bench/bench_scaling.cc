// Scaling behaviour of the policy base (paper §5/§6 parameters):
// retrieval latency as each model parameter grows — N (total policies),
// i (intervals per range), hierarchy sizes |A| = |R|, and the number of
// attributes bound by the query's activity specification.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include "json_reporter.h"

#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "policy/synthetic.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "store/durable_rm.h"

namespace {

using namespace wfrm::policy;  // NOLINT

void Run(benchmark::State& state, const SyntheticConfig& config) {
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  std::mt19937 rng(17);
  std::vector<wfrm::rql::RqlQuery> queries;
  for (int i = 0; i < 32; ++i) {
    auto q = (*w)->RandomQuery(rng);
    if (q.ok()) queries.push_back(std::move(q).ValueOrDie());
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = queries[i++ % queries.size()];
    benchmark::DoNotOptimize((*w)->store().RelevantRequirements(
        query.resource(), query.activity(), query.spec.AsParams()));
  }
  state.counters["policy_rows"] =
      static_cast<double>((*w)->store().num_requirement_rows());
  state.counters["interval_rows"] =
      static_cast<double>((*w)->store().num_requirement_interval_rows());
}

// N sweep at fixed |A| = |R| = 64, q = c = sqrt(N/64).
void BM_Scaling_PolicyCount(benchmark::State& state) {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = static_cast<size_t>(state.range(0));
  config.c = static_cast<size_t>(state.range(0));
  Run(state, config);
}
BENCHMARK(BM_Scaling_PolicyCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// i sweep: more intervals per activity range (wider Filter table).
void BM_Scaling_IntervalsPerRange(benchmark::State& state) {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = 8;
  config.c = 8;
  config.intervals = static_cast<size_t>(state.range(0));
  Run(state, config);
}
BENCHMARK(BM_Scaling_IntervalsPerRange)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Hierarchy sweep: deeper trees mean longer Ancestor() in-lists
// (log|A| · log|R| index probes).
void BM_Scaling_HierarchySize(benchmark::State& state) {
  SyntheticConfig config;
  config.num_activities = static_cast<size_t>(state.range(0));
  config.num_resources = static_cast<size_t>(state.range(0));
  config.q = 8;
  config.c = 8;
  Run(state, config);
}
BENCHMARK(BM_Scaling_HierarchySize)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Insertion cost: policy decomposition (DNF + interval rows + index
// maintenance) per requirement policy.
void BM_Scaling_PolicyInsertion(benchmark::State& state) {
  SyntheticConfig base;
  base.num_activities = 64;
  base.num_resources = 64;
  base.q = 1;
  base.c = 1;
  auto w = SyntheticWorkload::Build(base);
  if (!w.ok()) std::abort();

  auto parsed = ParsePolicy(
      "Require Role1 Where Experience > 5 For Act1 "
      "With Act1_p0 > 100 And Act1_p0 < 200");
  if (!parsed.ok()) std::abort();
  const auto& policy = std::get<RequirementPolicy>(*parsed);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*w)->store().AddRequirement(policy));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Scaling_PolicyInsertion);

// Disjunctive With clauses: DNF splitting cost by disjunct count.
void BM_Scaling_DnfSplitting(benchmark::State& state) {
  SyntheticConfig base;
  base.num_activities = 64;
  base.num_resources = 64;
  base.q = 1;
  base.c = 1;
  auto w = SyntheticWorkload::Build(base);
  if (!w.ok()) std::abort();

  int64_t disjuncts = state.range(0);
  std::string with;
  for (int64_t k = 0; k < disjuncts; ++k) {
    if (k > 0) with += " Or ";
    with += "(Act1_p0 >= " + std::to_string(k * 100) + " And Act1_p0 < " +
            std::to_string(k * 100 + 50) + ")";
  }
  auto parsed =
      ParsePolicy("Require Role1 Where Experience > 0 For Act1 With " + with);
  if (!parsed.ok()) std::abort();
  const auto& policy = std::get<RequirementPolicy>(*parsed);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*w)->store().AddRequirement(policy));
  }
  state.counters["rows/policy"] = static_cast<double>(disjuncts);
}
BENCHMARK(BM_Scaling_DnfSplitting)->Arg(1)->Arg(4)->Arg(16);

// ---- Sharded scaling (DESIGN.md §12) ---------------------------------------

constexpr char kShardRdl[] = R"(
  Define Resource Type Employee
      (ContactInfo String, Location String, Experience Int);
  Define Resource Type Programmer Under Employee;
  Define Activity Type Activity (Location String);
  Define Activity Type Programming Under Activity (NumberOfLines Int);
)";

constexpr char kShardPolicies[] = R"(
  Qualify Programmer For Programming;
  Require Programmer Where Experience > 5
    For Programming With NumberOfLines > 10000;
)";

std::string ShardInsert(int i) {
  std::string id = "p";
  id += std::to_string(i);
  return "Insert Resource Programmer '" + id + "' (ContactInfo = '" + id +
         "@x.com', Location = 'PA', Experience = " + std::to_string(i % 20) +
         ");";
}

std::string ShardQuery(int lines) {
  return "Select ContactInfo From Programmer Where Location = 'PA' "
         "For Programming With NumberOfLines = " +
         std::to_string(lines) + " And Location = 'PA'";
}

/// A cluster + router + one tenant per shard, rooted in a scratch
/// directory. A fixed pool of kShardTotalResources programmers is
/// partitioned round-robin across the shards, so each shard owns (and
/// each query scans) only its 1/num_shards slice of the fleet.
constexpr int kShardTotalResources = 512;

struct ShardBenchWorld {
  std::string root;
  std::unique_ptr<wfrm::shard::ShardCluster> cluster;
  std::unique_ptr<wfrm::shard::ShardMap> map;
  std::unique_ptr<wfrm::shard::ShardRouter> router;
  std::vector<std::string> tenants;

  ~ShardBenchWorld() {
    router.reset();
    cluster.reset();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
};

std::unique_ptr<ShardBenchWorld> OpenShardWorld(size_t num_shards,
                                                bool disable_caches) {
  auto world = std::make_unique<ShardBenchWorld>();
  world->root = (std::filesystem::temp_directory_path() /
                 ("wfrm_bench_shard_" + std::to_string(::getpid()) + "_" +
                  std::to_string(num_shards)))
                    .string();
  std::error_code ec;
  std::filesystem::remove_all(world->root, ec);

  wfrm::shard::ShardClusterOptions options;
  options.num_shards = num_shards;
  options.durable.fsync_mode = wfrm::store::FsyncMode::kOff;
  options.durable.rm_options.lease_duration_micros = 0;
  auto cluster = wfrm::shard::ShardCluster::Open(world->root, options);
  if (!cluster.ok()) std::abort();
  world->cluster = std::move(*cluster);
  world->map = std::make_unique<wfrm::shard::ShardMap>(num_shards);

  for (size_t s = 0; s < num_shards; ++s) {
    auto primary = world->cluster->Primary(s);
    if (primary == nullptr) std::abort();
    if (!primary->ExecuteRdl(kShardRdl).ok()) std::abort();
    if (!primary->AddPolicyText(kShardPolicies).ok()) std::abort();
    for (int i = 0; i < kShardTotalResources; ++i) {
      if (i % num_shards != s) continue;  // this shard's partition only
      if (!primary->ExecuteRdl(ShardInsert(i)).ok()) std::abort();
    }
    if (disable_caches) primary->store().set_cache_enabled(false);
    for (int i = 0; i < 100'000; ++i) {
      std::string key = "tenant" + std::to_string(i);
      if (world->map->Resolve(key) == s) {
        world->tenants.push_back(key);
        break;
      }
    }
  }
  if (world->tenants.size() != num_shards) std::abort();

  wfrm::shard::ShardRouterOptions router_options;
  router_options.workers_per_shard = 1;
  world->router = std::make_unique<wfrm::shard::ShardRouter>(
      world->cluster.get(), world->map.get(), router_options);
  return world;
}

// Aggregate EnforceBatch throughput by shard count over a FIXED total
// fleet (kShardTotalResources programmers, partitioned across shards).
// Sharding wins twice: each shard's enforcement scan touches only its
// 1/num_shards slice of the fleet, and shard executors run concurrently
// on multicore hosts. The first effect alone delivers the scaling even
// on a single-core runner; workers_per_shard is pinned to 1 and caches
// are off so neither intra-shard parallelism nor memoization pollutes
// the curve. The acceptance bar: 4 shards >= 3x the 1-shard items/s.
void BM_Scaling_ShardedEnforceBatch(benchmark::State& state) {
  const auto num_shards = static_cast<size_t>(state.range(0));
  auto world = OpenShardWorld(num_shards, /*disable_caches=*/true);

  constexpr size_t kBatch = 64;
  std::vector<wfrm::shard::BatchItem> items;
  items.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    // Distinct parameter values per item: no two items are the same
    // query, mirroring independent requests from many workflows.
    items.push_back({world->tenants[i % num_shards],
                     ShardQuery(11'000 + static_cast<int>(i) * 37)});
  }

  for (auto _ : state) {
    auto results = world->router->EnforceBatch(items);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
  state.counters["shards"] = static_cast<double>(num_shards);
}
// UseRealTime: the enforcement work runs on the router's per-shard
// executor threads, so main-thread CPU time would under-count it.
BENCHMARK(BM_Scaling_ShardedEnforceBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Epoch isolation: shard 0 takes a mutation per iteration while shard 1
// answers the same query — shard 1's caches must stay warm (zero
// invalidations), which is the whole point of per-shard epochs.
void BM_Scaling_ShardEpochIsolation(benchmark::State& state) {
  auto world = OpenShardWorld(2, /*disable_caches=*/false);
  const std::string query = ShardQuery(20'000);
  benchmark::DoNotOptimize(world->router->Enforce(world->tenants[1], query));

  int next = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world->router->ExecuteRdl(world->tenants[0], ShardInsert(next++)));
    benchmark::DoNotOptimize(
        world->router->Enforce(world->tenants[1], query));
  }
  const auto stats = world->router->ShardStats(1);
  state.counters["other_shard_invalidations"] =
      static_cast<double>(stats.cache_invalidations);
  state.counters["other_shard_cached_hits"] =
      static_cast<double>(stats.cache_hits + stats.rewrite_cache_hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Scaling_ShardEpochIsolation);

}  // namespace

WFRM_BENCH_JSON_MAIN();
