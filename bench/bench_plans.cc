// Execution-plan ablation (paper §6, policy/paper_retrieval.h): the
// Filter-first and Policies-first join orders across the Figure 17
// fragmentation sweep, plus the adaptive planner that chooses per the
// analytic selectivity model on live statistics. The §6 curves predict
// Policies-first wins at small c (Relevant_Policies more selective) and
// Filter-first wins as c grows — the adaptive plan should track the
// winner.

#include <benchmark/benchmark.h>

#include <random>

#include "policy/paper_retrieval.h"
#include "policy/synthetic.h"

namespace {

using namespace wfrm::policy;  // NOLINT
using Strategy = PaperRetrievalOptions::Strategy;

void RunPlan(benchmark::State& state, Strategy plan,
             bool general_placement = true) {
  size_t c = static_cast<size_t>(state.range(0));
  size_t q = 64 / c;  // N = 64·q·c = 4096 fixed, as in Figure 17.
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = q;
  config.c = c;
  config.seed = 42 + c;
  config.general_activity_placement = general_placement;
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  // The ablation has no enforcement cache: every iteration executes the
  // plan.
  PaperRetrieval ablation((*w)->store(), {plan});

  std::mt19937 rng(7);
  std::vector<wfrm::rql::RqlQuery> queries;
  for (int i = 0; i < 64; ++i) {
    auto query = (*w)->RandomQuery(rng);
    if (query.ok()) queries.push_back(std::move(query).ValueOrDie());
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(ablation.RelevantRequirements(
        query.resource(), query.activity(), query.spec.AsParams()));
  }
  state.counters["c"] = static_cast<double>(c);
  state.counters["q"] = static_cast<double>(q);
}

void BM_Plan_FilterFirst(benchmark::State& state) {
  RunPlan(state, Strategy::kFilterFirst);
}
void BM_Plan_PoliciesFirst(benchmark::State& state) {
  RunPlan(state, Strategy::kPoliciesFirst);
}
void BM_Plan_Adaptive(benchmark::State& state) {
  RunPlan(state, Strategy::kAdaptive);
}

BENCHMARK(BM_Plan_FilterFirst)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_Plan_PoliciesFirst)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_Plan_Adaptive)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The same sweep with policies spread round-robin over every activity
// (attribute partitions stay small, candidate lists grow with c): the
// regime where Filter-first overtakes Policies-first.
void BM_Plan_FilterFirst_Spread(benchmark::State& state) {
  RunPlan(state, Strategy::kFilterFirst, /*general_placement=*/false);
}
void BM_Plan_PoliciesFirst_Spread(benchmark::State& state) {
  RunPlan(state, Strategy::kPoliciesFirst, /*general_placement=*/false);
}
void BM_Plan_Adaptive_Spread(benchmark::State& state) {
  RunPlan(state, Strategy::kAdaptive, /*general_placement=*/false);
}
BENCHMARK(BM_Plan_FilterFirst_Spread)->Arg(1)->Arg(16)->Arg(64);
BENCHMARK(BM_Plan_PoliciesFirst_Spread)->Arg(1)->Arg(16)->Arg(64);
BENCHMARK(BM_Plan_Adaptive_Spread)->Arg(1)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
