// Durability layer costs: WAL append throughput per fsync mode,
// checkpoint cost, and replay throughput — how many journaled
// mutations per second Open() can reconstruct (the startup-latency
// figure that motivates snapshots + log truncation, DESIGN.md §10).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "store/durable_rm.h"
#include "store/record.h"
#include "store/wal.h"

#include "json_reporter.h"

namespace {

using namespace wfrm;  // NOLINT

std::string MakeTempDir() {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "wfrm_bench_store_XXXXXX")
          .string();
  if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
  return tmpl;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

constexpr char kRdl[] =
    "Define Resource Type Employee "
    "(ContactInfo String, Location String, Experience Int);"
    "Define Resource Type Programmer Under Employee;"
    "Define Activity Type Activity (Location String);"
    "Define Activity Type Programming Under Activity (NumberOfLines Int);";

std::string InsertStatement(int i) {
  std::string id = "p";
  id += std::to_string(i);
  std::string stmt = "Insert Resource Programmer '";
  stmt += id;
  stmt += "' (ContactInfo = '";
  stmt += id;
  stmt += "@x.com', Location = 'PA', Experience = ";
  stmt += std::to_string(i % 20);
  stmt += ");";
  return stmt;
}

/// Raw framing cost: append fixed-size records under each fsync mode.
void BM_Store_WalAppend(benchmark::State& state) {
  auto mode = static_cast<store::FsyncMode>(state.range(0));
  std::string dir = MakeTempDir();
  store::WalWriter wal;
  if (!wal.Open(dir + "/wal.log", mode, 64).ok()) std::abort();
  std::string payload(128, 'x');
  for (auto _ : state) {
    if (!wal.Append(payload).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size() + 8));
  state.SetLabel(store::FsyncModeName(mode));
  wal.Close();
  RemoveDir(dir);
}
BENCHMARK(BM_Store_WalAppend)
    ->Arg(static_cast<int>(store::FsyncMode::kOff))
    ->Arg(static_cast<int>(store::FsyncMode::kInterval));

/// Journaled mutation cost through the facade (org inserts — the
/// cheapest real mutation, so the measured delta is the journal).
void BM_Store_JournaledInsert(benchmark::State& state) {
  std::string dir = MakeTempDir();
  store::DurableOptions options;
  options.fsync_mode = store::FsyncMode::kInterval;
  auto d = store::DurableResourceManager::Open(dir, options);
  if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
  int i = 0;
  for (auto _ : state) {
    if (!(*d)->ExecuteRdl(InsertStatement(i++)).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  d->reset();
  RemoveDir(dir);
}
BENCHMARK(BM_Store_JournaledInsert);

/// Replay throughput: Open() over a WAL of `range(0)` insert records.
/// items == replayed records, so items_per_second is the recovery rate.
void BM_Store_Replay(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  std::string dir = MakeTempDir();
  {
    store::DurableOptions options;
    options.fsync_mode = store::FsyncMode::kOff;
    auto d = store::DurableResourceManager::Open(dir, options);
    if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
    for (int i = 0; i < records; ++i) {
      if (!(*d)->ExecuteRdl(InsertStatement(i)).ok()) std::abort();
    }
  }
  for (auto _ : state) {
    auto d = store::DurableResourceManager::Open(dir);
    if (!d.ok()) std::abort();
    benchmark::DoNotOptimize((*d)->recovery_info().wal_records_replayed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (records + 1));
  RemoveDir(dir);
}
BENCHMARK(BM_Store_Replay)->Arg(100)->Arg(1000);

/// Checkpoint + truncate cost, and Open() from pages.db on the result.
void BM_Store_CheckpointAndReopen(benchmark::State& state) {
  std::string dir = MakeTempDir();
  {
    store::DurableOptions options;
    options.fsync_mode = store::FsyncMode::kOff;
    auto d = store::DurableResourceManager::Open(dir, options);
    if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
    for (int i = 0; i < 500; ++i) {
      if (!(*d)->ExecuteRdl(InsertStatement(i)).ok()) std::abort();
    }
    if (!(*d)->Checkpoint().ok()) std::abort();
  }
  for (auto _ : state) {
    auto d = store::DurableResourceManager::Open(dir);
    if (!d.ok() || !(*d)->recovery_info().snapshot_loaded) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  RemoveDir(dir);
}
BENCHMARK(BM_Store_CheckpointAndReopen);

/// The tentpole recovery claim: reopening a paged home whose mutations
/// are checkpointed into pages.db costs O(dirty pages), not O(dataset).
/// range(0) journaled inserts are folded into the paged image, leaving
/// a short WAL tail; Open() then recovers lazily (policy base, org
/// model and lease table all hydrate on first use; the tail's RDL
/// records are buffered in journal order). The figure to read: real_ns
/// must stay roughly flat from 1k to 100k mutations, where hydrating
/// eagerly at Open grows linearly (CI gates the 100k/1k ratio).
void BM_Store_PagedReopenAfterCheckpoint(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  std::string dir = MakeTempDir();
  {
    store::DurableOptions options;
    options.fsync_mode = store::FsyncMode::kOff;
    auto d = store::DurableResourceManager::Open(dir, options);
    if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
    for (int i = 0; i < records; ++i) {
      if (!(*d)->ExecuteRdl(InsertStatement(i)).ok()) std::abort();
    }
    if (!(*d)->Checkpoint().ok()) std::abort();
    // A short post-checkpoint tail, as a live system would have.
    for (int i = 0; i < 16; ++i) {
      if (!(*d)->ExecuteRdl(InsertStatement(records + i)).ok()) std::abort();
    }
  }
  for (auto _ : state) {
    auto d = store::DurableResourceManager::Open(dir);
    if (!d.ok() || !(*d)->recovery_info().snapshot_loaded) std::abort();
    benchmark::DoNotOptimize((*d)->recovery_info().wal_records_replayed);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["journaled_mutations"] = records;
  RemoveDir(dir);
}
BENCHMARK(BM_Store_PagedReopenAfterCheckpoint)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Steady-state checkpoint cost on the paged backend: lease churn
/// between checkpoints, so each Checkpoint() call re-persists only the
/// dirty leases and flips the meta — the 5000-resource org and the
/// policy base stay untouched on their committed pages (compare
/// against BM_Store_CheckpointAndReopen's full-image cost).
void BM_Store_PagedIncrementalCheckpoint(benchmark::State& state) {
  std::string dir = MakeTempDir();
  store::DurableOptions options;
  options.fsync_mode = store::FsyncMode::kOff;
  auto d = store::DurableResourceManager::Open(dir, options);
  if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
  for (int i = 0; i < 5000; ++i) {
    if (!(*d)->ExecuteRdl(InsertStatement(i)).ok()) std::abort();
  }
  if (!(*d)->AddPolicyText("Qualify Programmer For Programming;").ok()) {
    std::abort();
  }
  if (!(*d)->Checkpoint().ok()) std::abort();
  const char kJob[] =
      "Select ContactInfo From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 5 And Location = 'PA'";
  for (auto _ : state) {
    auto lease = (*d)->Acquire(kJob);
    if (!lease.ok() || !(*d)->Release(*lease).ok()) std::abort();
    if (!(*d)->Checkpoint().ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flushed_pages"] = static_cast<double>(
      (*d)->page_stats().pager.pages_flushed_last_commit);
  d->reset();
  RemoveDir(dir);
}
BENCHMARK(BM_Store_PagedIncrementalCheckpoint);

/// One qualification and three requirements, all relevant to the job.
constexpr char kAcquirePolicies[] =
    "Qualify Programmer For Programming;"
    "Require Programmer Where Location = 'PA' "
    "  For Programming With NumberOfLines > 1000;"
    "Require Programmer Where Experience > 1 "
    "  For Programming With NumberOfLines > 5000;"
    "Require Employee Where Location <> 'NY' "
    "  For Activity With Location = 'PA';";

/// The home every thread of one BM_Store_ConcurrentAcquire run shares.
std::string g_acquire_dir;
std::unique_ptr<store::DurableResourceManager> g_acquire_home;

/// Acquire+Release pairs from 1 and 4 threads on one home at fsync
/// off. Enforcement (rewrite plus a 256-row query) runs outside the
/// home lock and only the claim and journal append inside, so
/// items_per_second at threads:4 over threads:1 is the lock-scope
/// figure CI gates. Google Benchmark averages thread wall times under
/// UseRealTime(), so items_per_second is already the rate of all
/// threads together.
void BM_Store_ConcurrentAcquire(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_acquire_dir = MakeTempDir();
    store::DurableOptions options;
    options.fsync_mode = store::FsyncMode::kOff;
    auto d = store::DurableResourceManager::Open(g_acquire_dir, options);
    if (!d.ok() || !(*d)->ExecuteRdl(kRdl).ok()) std::abort();
    for (int i = 0; i < 256; ++i) {
      if (!(*d)->ExecuteRdl(InsertStatement(i)).ok()) std::abort();
    }
    if (!(*d)->AddPolicyText(kAcquirePolicies).ok()) std::abort();
    g_acquire_home = std::move(*d);
  }
  // The first iteration starts only once every thread got here, so the
  // home thread 0 built above is ready.
  const char kJob[] =
      "Select ContactInfo From Programmer Where Experience >= 5 "
      "For Programming With NumberOfLines = 20000 And Location = 'PA'";
  for (auto _ : state) {
    auto lease = g_acquire_home->Acquire(kJob);
    if (!lease.ok() || !g_acquire_home->Release(*lease).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  // Every thread has left the loop before any passes its end.
  if (state.thread_index() == 0) {
    g_acquire_home.reset();
    RemoveDir(g_acquire_dir);
  }
}
BENCHMARK(BM_Store_ConcurrentAcquire)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->MinTime(2);

}  // namespace

WFRM_BENCH_JSON_MAIN();
