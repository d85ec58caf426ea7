// Relevant-policy retrieval strategies compared (paper §5, §6):
//
//   * Direct       — the store's reference plan: concatenated-index
//                    probes (§5.2 indexes driven by an in-memory
//                    processor, the §6 closing guidance);
//   * DirectScan   — the same join order with indexes off (ablation:
//                    what the §5.2 concatenated indexes buy);
//   * Sql          — the literal Figure 13/14/15 views + union executed
//                    on the embedded relational engine (ablation);
//   * Naive        — the §5.1 strawman: 4-column string table, re-parse
//                    and re-evaluate every With clause per retrieval;
//   * Compiled     — the store's default path: flat per-attribute
//                    interval tables built once per (resource, activity)
//                    epoch.
//
// DirectScan and Sql run on policy/paper_retrieval.h, the others on the
// serving PolicyStore and the naive baseline.

#include <benchmark/benchmark.h>

#include <random>

#include "json_reporter.h"
#include "policy/paper_retrieval.h"
#include "policy/synthetic.h"
#include "rel/executor.h"
#include "rel/parser.h"

namespace {

using namespace wfrm::policy;  // NOLINT
using Strategy = PaperRetrievalOptions::Strategy;

std::unique_ptr<SyntheticWorkload> BuildWorkload(size_t scale_q,
                                                 size_t scale_c) {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = scale_q;
  config.c = scale_c;
  config.intervals = 1;
  config.build_naive_baseline = true;
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  return std::move(w).ValueOrDie();
}

/// Pre-generates queries so query synthesis is outside the timed loop.
std::vector<wfrm::rql::RqlQuery> MakeQueries(const SyntheticWorkload& w,
                                             size_t n) {
  std::mt19937 rng(99);
  std::vector<wfrm::rql::RqlQuery> queries;
  for (size_t i = 0; i < n; ++i) {
    auto q = w.RandomQuery(rng);
    if (q.ok()) queries.push_back(std::move(q).ValueOrDie());
  }
  return queries;
}

/// Who answers the timed retrievals.
enum class Path { kStoreReference, kStoreCompiled, kNaive, kAblation };

void RunRetrieval(benchmark::State& state, Path path,
                  PaperRetrievalOptions ablation_options = {}) {
  size_t q = static_cast<size_t>(state.range(0));
  size_t c = static_cast<size_t>(state.range(1));
  auto w = BuildWorkload(q, c);
  auto queries = MakeQueries(*w, 64);
  w->store().set_compiled_enabled(path == Path::kStoreCompiled);
  std::unique_ptr<PaperRetrieval> ablation;
  if (path == Path::kAblation) {
    ablation = std::make_unique<PaperRetrieval>(w->store(), ablation_options);
  }

  auto retrieve = [&](const wfrm::rql::RqlQuery& query) {
    const wfrm::rel::ParamMap spec = query.spec.AsParams();
    if (path == Path::kNaive) {
      return w->naive()->RelevantRequirements(query.resource(),
                                              query.activity(), spec);
    }
    if (ablation != nullptr) {
      return ablation->RelevantRequirements(query.resource(),
                                            query.activity(), spec);
    }
    return w->store().RelevantRequirements(query.resource(), query.activity(),
                                           spec);
  };

  size_t i = 0;
  size_t relevant = 0;
  for (auto _ : state) {
    auto r = retrieve(queries[i++ % queries.size()]);
    if (r.ok()) relevant += r->size();
  }
  state.counters["policies"] =
      static_cast<double>(w->store().num_requirement_rows());
  state.counters["relevant/query"] =
      benchmark::Counter(static_cast<double>(relevant),
                         benchmark::Counter::kAvgIterations);
}

void BM_Retrieval_Direct(benchmark::State& state) {
  RunRetrieval(state, Path::kStoreReference);
}
void BM_Retrieval_DirectScan(benchmark::State& state) {
  RunRetrieval(state, Path::kAblation,
               {Strategy::kFilterFirst, /*use_indexes=*/false});
}
void BM_Retrieval_Sql(benchmark::State& state) {
  RunRetrieval(state, Path::kAblation, {Strategy::kSql});
}
void BM_Retrieval_Naive(benchmark::State& state) {
  RunRetrieval(state, Path::kNaive);
}
void BM_Retrieval_Compiled(benchmark::State& state) {
  RunRetrieval(state, Path::kStoreCompiled);
}

// (q, c) pairs: N = 64·q·c policies — 1k, 4k, 16k.
#define RETRIEVAL_ARGS \
  Args({4, 4})->Args({8, 8})->Args({16, 16})

BENCHMARK(BM_Retrieval_Direct)->RETRIEVAL_ARGS;
BENCHMARK(BM_Retrieval_DirectScan)->RETRIEVAL_ARGS;
BENCHMARK(BM_Retrieval_Sql)->RETRIEVAL_ARGS;
BENCHMARK(BM_Retrieval_Naive)->RETRIEVAL_ARGS;
BENCHMARK(BM_Retrieval_Compiled)->RETRIEVAL_ARGS;

// Concurrent SQL retrieval: shape-bucketed views + the plan cache leave
// only a shared lock on the hot path (re-registering views per query
// under an exclusive lock ran retrievals one at a time); 8 threads
// should scale, not serialize.
void BM_Retrieval_SqlConcurrent(benchmark::State& state) {
  // Magic-static init is thread-safe: the first thread builds, the rest
  // block until it's ready.
  static auto* w = BuildWorkload(8, 8).release();
  static auto* sql = new PaperRetrieval(w->store(), {Strategy::kSql});
  static auto* queries = new std::vector<wfrm::rql::RqlQuery>(
      MakeQueries(*w, 64));

  size_t i = static_cast<size_t>(state.thread_index()) * 17;
  size_t relevant = 0;
  for (auto _ : state) {
    const auto& query = (*queries)[i++ % queries->size()];
    auto r = sql->RelevantRequirements(query.resource(), query.activity(),
                                       query.spec.AsParams());
    if (r.ok()) relevant += r->size();
  }
  benchmark::DoNotOptimize(relevant);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Retrieval_SqlConcurrent)->Threads(1)->Threads(8)->UseRealTime();

// Substitution retrieval (shares the machinery; §4.3 conditions).
void BM_Retrieval_Substitutions(benchmark::State& state) {
  SyntheticConfig config;
  config.num_activities = 64;
  config.num_resources = 64;
  config.q = 4;
  config.c = 4;
  config.num_substitutions = static_cast<size_t>(state.range(0));
  auto w = SyntheticWorkload::Build(config);
  if (!w.ok()) std::abort();
  auto queries = MakeQueries(**w, 64);
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = queries[i++ % queries.size()];
    benchmark::DoNotOptimize((*w)->store().RelevantSubstitutions(
        query.resource(), query.select->where.get(), query.activity(),
        query.spec.AsParams()));
  }
}
BENCHMARK(BM_Retrieval_Substitutions)->Arg(64)->Arg(512)->Arg(4096);

// Rel execution of one rewritten lease query, the stack benchmark's
// acquire_wal shape: `Select Id, Id From Role38 Where Experience >= k
// And ...` over a 64-row resource table that carries only its Id hash
// index. §4.2 rewriting ANDs in one conjunct per applicable policy; the
// arg is the conjunct count. CI asserts /12 ÷ /1 from the same run.
void BM_Exec_RequirementScan(benchmark::State& state) {
  using wfrm::rel::DataType;
  using wfrm::rel::Value;
  wfrm::rel::Database db;
  auto table = db.CreateTable(
      "Role38", wfrm::rel::Schema({{"Id", DataType::kString},
                                   {"Experience", DataType::kInt},
                                   {"Location", DataType::kString}}));
  if (!table.ok() ||
      !(*table)->CreateHashIndex("Role38_by_id", {"Id"}).ok()) {
    std::abort();
  }
  for (int i = 0; i < 64; ++i) {
    if (!(*table)
             ->Insert({Value::String(std::to_string(1000 + i)), Value::Int(i),
                       Value::String(i % 2 == 0 ? "PA" : "Cupertino")})
             .ok()) {
      std::abort();
    }
  }
  // Thresholds 16, 15, 14, ...: rows below 16 fail the first conjunct,
  // the other 48 pass every one, so each arg returns the same rows.
  std::string sql = "Select Id, Id From Role38 Where Experience >= 16";
  for (int64_t k = 1; k < state.range(0); ++k) {
    sql += " And Experience >= ";
    sql += std::to_string(16 - k);
  }
  auto stmt = wfrm::rel::SqlParser::ParseSelect(sql);
  if (!stmt.ok()) std::abort();
  wfrm::rel::Executor exec(&db);
  size_t rows = 0;
  for (auto _ : state) {
    auto rs = exec.Execute(**stmt);
    if (rs.ok()) rows += rs->rows.size();
    benchmark::DoNotOptimize(rs);
  }
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Exec_RequirementScan)->Arg(1)->Arg(12);

}  // namespace

WFRM_BENCH_JSON_MAIN();
