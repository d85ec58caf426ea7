// Query-rewriting throughput (paper §4): the three rewritings on the
// paper's running example (Figures 10-12) and the full Figure 1
// enforcement pipeline, plus scaling against the synthetic policy base.

#include <benchmark/benchmark.h>

#include <random>

#include "json_reporter.h"
#include "policy/policy_manager.h"
#include "policy/synthetic.h"
#include "testutil/paper_org.h"

namespace {

using namespace wfrm;          // NOLINT
using namespace wfrm::policy;  // NOLINT

constexpr char kFigure4[] =
    "Select ContactInfo From Engineer Where Location = 'PA' "
    "For Programming With NumberOfLines = 35000 And Location = 'Mexico'";

struct PaperFixture {
  testutil::PaperWorld world;
  rql::RqlQuery query;
  Rewriter rewriter;

  static PaperFixture* Make() {
    auto world = testutil::BuildPaperWorld();
    if (!world.ok()) std::abort();
    auto query = rql::ParseAndBindRql(kFigure4, *world->org);
    if (!query.ok()) std::abort();
    auto* f = new PaperFixture{
        std::move(world).ValueOrDie(), std::move(query).ValueOrDie(),
        Rewriter(nullptr, nullptr)};
    f->rewriter = Rewriter(f->world.org.get(), f->world.store.get());
    // These benches price the rewriting machinery on repeated queries;
    // with the enforcement/rewrite caches on they would measure memo
    // hits instead. bench_cache prices the cached path.
    f->world.store->set_cache_enabled(false);
    return f;
  }
};

PaperFixture& Fixture() {
  static PaperFixture* fixture = PaperFixture::Make();
  return *fixture;
}

void BM_Rewrite_ParseRql(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rql::ParseAndBindRql(kFigure4, *f.world.org));
  }
}
BENCHMARK(BM_Rewrite_ParseRql);

void BM_Rewrite_Qualification(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.rewriter.RewriteQualification(f.query));
  }
}
BENCHMARK(BM_Rewrite_Qualification);

void BM_Rewrite_Requirement(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.rewriter.RewriteRequirement(f.query));
  }
}
BENCHMARK(BM_Rewrite_Requirement);

void BM_Rewrite_Substitution(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.rewriter.RewriteSubstitution(f.query));
  }
}
BENCHMARK(BM_Rewrite_Substitution);

void BM_Rewrite_FullPrimaryPipeline(benchmark::State& state) {
  auto& f = Fixture();
  PolicyManager pm(f.world.org.get(), f.world.store.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.EnforcePrimary(f.query));
  }
}
BENCHMARK(BM_Rewrite_FullPrimaryPipeline);

void BM_Rewrite_AlternativesPipeline(benchmark::State& state) {
  auto& f = Fixture();
  PolicyManager pm(f.world.org.get(), f.world.store.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.EnforceAlternatives(f.query));
  }
}
BENCHMARK(BM_Rewrite_AlternativesPipeline);

// Requirement rewriting against growing synthetic policy bases: the
// cost is dominated by relevant-policy retrieval, which the §5.2
// indexes keep near-flat in N.
void BM_Rewrite_RequirementVsPolicyBase(benchmark::State& state) {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = static_cast<size_t>(state.range(0));
  config.c = static_cast<size_t>(state.range(0));
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  Rewriter rewriter(&(*w)->org(), &(*w)->store());
  std::mt19937 rng(3);
  std::vector<rql::RqlQuery> queries;
  for (int i = 0; i < 32; ++i) {
    auto q = (*w)->RandomQuery(rng);
    if (q.ok()) queries.push_back(std::move(q).ValueOrDie());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rewriter.RewriteRequirement(queries[i++ % queries.size()]));
  }
  state.counters["policies"] =
      static_cast<double>((*w)->store().num_requirement_rows());
}
BENCHMARK(BM_Rewrite_RequirementVsPolicyBase)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

WFRM_BENCH_JSON_MAIN();
