// Prices the two enforcement caches: the prepared-enforcement memo
// (the full pipeline cold, with the memo off, vs warm, and the metrics
// hooks on its hit path), requirement retrieval through the compiled
// tables at 1 vs 8 reader threads (one mutex per cache, probes outside
// it), and a warm prepared Submit against parsing the same texts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/resource_manager.h"
#include "json_reporter.h"
#include "obs/metrics.h"
#include "policy/policy_manager.h"
#include "policy/synthetic.h"

namespace {

using namespace wfrm;          // NOLINT
using namespace wfrm::policy;  // NOLINT

std::unique_ptr<SyntheticWorkload> BuildWorkload() {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = 8;
  config.c = 8;  // N = 64·8·8 = 4096 requirement policies.
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  return std::move(w).ValueOrDie();
}

std::vector<rql::RqlQuery> MakeQueries(const SyntheticWorkload& w, size_t n) {
  std::mt19937 rng(23);
  std::vector<rql::RqlQuery> queries;
  while (queries.size() < n) {
    auto q = w.RandomQuery(rng);
    if (q.ok()) queries.push_back(std::move(q).ValueOrDie());
  }
  return queries;
}

// Full enforcement pipeline (qualification + requirement rewriting)
// through the PolicyManager's prepared memo: cold (memo off; every call
// fans out and probes the compiled tables) vs warm.
void RunPipeline(benchmark::State& state, bool cached) {
  static auto* w = BuildWorkload().release();
  static auto* queries = new std::vector<rql::RqlQuery>(MakeQueries(*w, 64));
  static auto* pm = new PolicyManager(&w->org(), &w->store());
  w->store().set_cache_enabled(cached);
  // The shared variant is the resource manager's hot path: a warm hit
  // serves the memoized result by pointer instead of deep-cloning it.
  for (const auto& query : *queries) {
    benchmark::DoNotOptimize(pm->EnforcePrimaryShared(query));
  }
  const StoreStatsSnapshot before = w->store().stats().Snapshot();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pm->EnforcePrimaryShared((*queries)[i++ % queries->size()]));
  }
  const StoreStatsSnapshot delta = w->store().stats().Snapshot() - before;
  state.counters["rewrite_hits"] =
      static_cast<double>(delta.rewrite_cache_hits);
  state.counters["rewrite_misses"] =
      static_cast<double>(delta.rewrite_cache_misses);
  w->store().set_cache_enabled(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_Cache_ColdPipeline(benchmark::State& state) {
  RunPipeline(state, /*cached=*/false);
}
BENCHMARK(BM_Cache_ColdPipeline);

void BM_Cache_WarmPipeline(benchmark::State& state) {
  RunPipeline(state, /*cached=*/true);
}
BENCHMARK(BM_Cache_WarmPipeline);

// Prices the observability hooks on the hot path: the warm pipeline
// with a metrics registry attached to the store (every retrieval and
// cache probe mirrors into relaxed atomic counters) vs detached (the
// null-pointer fast path). One run interleaves the two: each iteration
// times one block of calls detached and one attached, swapping which
// goes first every iteration, so drift in machine speed lands on both
// sides. The counters are the median ns per call of each side and
// their ratio; compare_bench.py gates the ratio (enabled within 5% of
// disabled, from baseline.json).
void BM_Obs_WarmPipelineOverhead(benchmark::State& state) {
  static auto* w = BuildWorkload().release();
  static auto* queries = new std::vector<rql::RqlQuery>(MakeQueries(*w, 64));
  static auto* pm = new PolicyManager(&w->org(), &w->store());
  static auto* registry = new obs::MetricsRegistry();
  constexpr size_t kBlock = 256;
  w->store().set_cache_enabled(true);
  for (const auto& query : *queries) {
    benchmark::DoNotOptimize(pm->EnforcePrimaryShared(query));
  }
  size_t i = 0;
  auto block_ns = [&](bool metrics_on) {
    w->store().set_metrics(metrics_on ? registry : nullptr);
    const auto start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < kBlock; ++k) {
      benchmark::DoNotOptimize(
          pm->EnforcePrimaryShared((*queries)[i++ % queries->size()]));
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - start).count() /
           kBlock;
  };
  std::vector<double> off;
  std::vector<double> on;
  bool on_first = false;
  for (auto _ : state) {
    if (on_first) on.push_back(block_ns(true));
    off.push_back(block_ns(false));
    if (!on_first) on.push_back(block_ns(true));
    on_first = !on_first;
  }
  w->store().set_metrics(nullptr);
  auto median = [](std::vector<double>* v) {
    std::nth_element(v->begin(), v->begin() + v->size() / 2, v->end());
    return (*v)[v->size() / 2];
  };
  const double off_ns = median(&off);
  const double on_ns = median(&on);
  state.counters["metrics_off_ns"] = off_ns;
  state.counters["metrics_on_ns"] = on_ns;
  state.counters["on_off_ratio"] = on_ns / off_ns;
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * 2 * kBlock));
}
BENCHMARK(BM_Obs_WarmPipelineOverhead);

// The prepared request path against the parse it skips, over the same
// 64 texts of the lease world (stackbench's acquire_wal world: q=2, c=4,
// 64 instances per resource type, texts answered by 16 to 64
// resources). WarmSubmit is ResourceManager::Submit(text) once every
// text is memoized; ParseAndBind is rql::ParseAndBindRql of the same
// texts. CI gates WarmSubmit / ParseAndBind from one run: a Submit that
// still parsed, rendered or re-bound per call costs about 4 parses.
struct LeaseWorld {
  std::unique_ptr<SyntheticWorkload> w;
  std::unique_ptr<core::ResourceManager> rm;
  std::vector<std::string> texts;
};

LeaseWorld* BuildLeaseWorld() {
  auto* world = new LeaseWorld();
  SyntheticConfig config;
  config.q = 2;
  config.c = 4;
  config.instances_per_resource = 64;
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  world->w = std::move(w).ValueOrDie();
  world->rm = std::make_unique<core::ResourceManager>(&world->w->org(),
                                                       &world->w->store());
  std::mt19937 rng(29);
  for (int attempt = 0; world->texts.size() < 64 && attempt < 100000;
       ++attempt) {
    auto q = world->w->RandomQuery(rng);
    if (!q.ok()) continue;
    std::string text = q->ToString();
    auto outcome = world->rm->Submit(text);
    if (!outcome.ok() || outcome->candidates.size() < 16 ||
        outcome->candidates.size() > 64 ||
        std::find(world->texts.begin(), world->texts.end(), text) !=
            world->texts.end()) {
      continue;
    }
    world->texts.push_back(std::move(text));
  }
  if (world->texts.size() < 64) std::abort();
  return world;
}

LeaseWorld& SharedLeaseWorld() {
  static LeaseWorld* world = BuildLeaseWorld();
  return *world;
}

void BM_Cache_WarmSubmit(benchmark::State& state) {
  LeaseWorld& world = SharedLeaseWorld();
  for (const std::string& text : world.texts) {
    benchmark::DoNotOptimize(world.rm->Submit(text));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.rm->Submit(world.texts[i++ % world.texts.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Cache_WarmSubmit);

void BM_Cache_ParseAndBind(benchmark::State& state) {
  LeaseWorld& world = SharedLeaseWorld();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rql::ParseAndBindRql(
        world.texts[i++ % world.texts.size()], world.w->org()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Cache_ParseAndBind);

// Concurrent warm retrieval: every thread looks its compiled table up
// under the cache's one mutex and probes it outside any lock.
// items_per_second at Threads(8) over items_per_second at Threads(1) is
// the reader-scaling figure CI gates (under UseRealTime() it is already
// the rate of all threads together).
void BM_Cache_ConcurrentRetrieval(benchmark::State& state) {
  static auto* w = BuildWorkload().release();
  static auto* queries = new std::vector<rql::RqlQuery>(MakeQueries(*w, 64));
  if (state.thread_index() == 0) {
    for (const auto& query : *queries) {
      benchmark::DoNotOptimize(w->store().RelevantRequirements(
          query.resource(), query.activity(), query.spec.AsParams()));
    }
  }
  size_t i = static_cast<size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const auto& query = (*queries)[i++ % queries->size()];
    benchmark::DoNotOptimize(w->store().RelevantRequirements(
        query.resource(), query.activity(), query.spec.AsParams()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Cache_ConcurrentRetrieval)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

}  // namespace

WFRM_BENCH_JSON_MAIN();
