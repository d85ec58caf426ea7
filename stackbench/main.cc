// Stack benchmark: drives the paper's Figure 1 path as wfrm serves
// it — ShardRouter → shard executor / admission queue →
// DurableResourceManager (journal + fsync under its mutation lock) →
// ResourceManager::Submit → PolicyManager rewrite → retrieval → lease —
// on a 2-shard ShardCluster of durable paged homes, from one process.
//
//   stackbench --workload <acquire_wal|enforce_zipf|policy_churn>
//              --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
// open-loop phase twice (untraced, then with the layer ladder on sampled
// requests) and prints the per-layer metrics. The last stdout line is
// one JSON object. Exit status 1 means a correctness check failed.
// README.md explains the workloads, the metrics and how to read the
// ladder.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fcntl.h>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/request_context.h"
#include "rql/rql.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "stats.h"
#include "store/durable_rm.h"
#include "world.h"

namespace {

using namespace wfrm;        // NOLINT
using namespace stackbench;  // NOLINT
using shard::ShardId;

constexpr size_t kShards = 2;
/// Set-up (cluster open + world load + warm-up) runs at least
/// kMinSetups times per run, and more (up to kMaxSetups) until they add
/// up to kMinSetupSeconds, so a set-up of 0.1 s is sampled as often as
/// one of 2 s. setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kMinSetupSeconds = 1.5;
/// Generous: no request should ever come near it.
constexpr int64_t kDeadlineMicros = 30'000'000;
constexpr size_t kBatchItems = 8;
constexpr size_t kTenants = 1000;
/// Trace mode issues the layer ladder for 1 in this many requests.
constexpr uint64_t kLadderEvery = 32;
/// 1 in this many EnforceBatch calls has every item checked against the
/// reference world, up to kMaxChecks items per run.
constexpr uint64_t kCheckEvery = 16;
constexpr size_t kMaxChecks = 400;
constexpr int kFsyncProbeWrites = 64;
constexpr int64_t kHoldUs = 20'000;
constexpr double kZipfS = 0.9;
/// Share of --seconds spent in the open-loop phase; the rest is the
/// closed-loop peak phase.
constexpr double kOpenShare = 0.6;
/// The world, the query pools and the warm-up come from this fixed seed,
/// so every run measures the same system; --seed drives the request
/// streams (arrival times, tenants, draws).
constexpr uint64_t kWorldSeed = 42;

// ---- Workloads ---------------------------------------------------------------

/// One workload. Rates are constants chosen once (a quarter of the
/// closed-loop peak on a shared 4-core VM or less; README.md says why) and
/// never derived from a run, so two commits always see the same offered
/// load.
struct Spec {
  std::string name;
  policy::SyntheticConfig world;
  /// The durable homes' WAL sync policy (the default is `interval`).
  store::FsyncMode fsync = store::FsyncMode::kInterval;
  /// Open-loop lease stream: Poisson Acquire arrivals per second, each
  /// released kHoldUs after it was granted.
  double lease_rate = 0;
  int lease_threads = 0;
  size_t lease_texts = 0;
  World::PoolFilter lease_filter;
  /// Open-loop read stream: Poisson EnforceBatch arrivals per second.
  double read_rate = 0;
  int read_threads = 0;
  size_t read_texts = 0;
  World::PoolFilter read_filter;
  /// Admin stream on shard 0: mutations per second at a fixed period,
  /// alternating AddPolicyText and the paired RemoveRequirementGroup.
  double admin_rate = 0;
  /// Driver-called ShardCluster::Checkpoint of every shard, this often.
  int64_t checkpoint_period_ms = 0;
  /// Closed-loop peak phase at the thread cap (0 threads = no phase).
  int peak_lease_threads = 0;
  int peak_read_threads = 0;
  /// Leases left held at the end and checked across Drain + reopen.
  size_t tail_leases = 0;
};

policy::SyntheticConfig LeaseWorld() {
  policy::SyntheticConfig c;
  c.q = 2;
  c.c = 4;
  c.instances_per_resource = 64;  // 4096 resources per shard.
  return c;
}

policy::SyntheticConfig Section6World() {
  policy::SyntheticConfig c;  // 64x64 hierarchies, q=8, c=8.
  c.instances_per_resource = 16;
  return c;
}

std::vector<Spec> Specs() {
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "acquire_wal";
    s.world = LeaseWorld();
    s.fsync = store::FsyncMode::kOff;
    s.lease_rate = 1000;
    s.lease_threads = 4;
    s.lease_texts = 64;
    s.lease_filter.min_candidates = 16;
    s.lease_filter.max_candidates = 64;
    s.peak_lease_threads = 4;
    s.tail_leases = 32;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "enforce_zipf";
    s.world = Section6World();
    s.read_rate = 180;
    s.read_threads = 2;
    s.read_texts = 50'000;
    s.read_filter.min_resource_depth = 3;
    s.peak_read_threads = 2;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "policy_churn";
    s.world = Section6World();
    s.lease_rate = 150;
    s.lease_threads = 1;
    s.lease_texts = 64;
    s.lease_filter.min_candidates = 8;
    s.lease_filter.max_candidates = 128;
    s.read_rate = 100;
    s.read_threads = 1;
    s.read_texts = 50'000;
    s.read_filter.min_resource_depth = 3;
    s.admin_rate = 4;
    s.checkpoint_period_ms = 1000;
    s.peak_read_threads = 2;
    specs.push_back(s);
  }
  return specs;
}

// ---- Run state ---------------------------------------------------------------

uint64_t Mix(uint64_t x) {  // splitmix64
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

RequestContext Ctx() {
  return RequestContext::WithDeadlineIn(nullptr, kDeadlineMicros);
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

enum class Kind : uint8_t { kAcquire, kRelease, kEnforce, kMutation };

/// One routed call. Latency is end − intended: an open-loop request is
/// timed from when it was due, so a stall also charges the requests it
/// delayed. Service time is end − start.
struct Sample {
  int64_t intended_ns;
  int64_t start_ns;
  int64_t end_ns;
  Kind kind;
  bool ok;
};

/// Trace-mode rung timings in µs (see README.md, "Reading the ladder").
struct Ladder {
  std::vector<double> parse, enforce, submit, lease_submit, durable_acquire,
      durable_release, routed_acquire, routed_enforce, batch, gather_self;

  void Append(const Ladder& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(parse, o.parse);
    cat(enforce, o.enforce);
    cat(submit, o.submit);
    cat(lease_submit, o.lease_submit);
    cat(durable_acquire, o.durable_acquire);
    cat(durable_release, o.durable_release);
    cat(routed_acquire, o.routed_acquire);
    cat(routed_enforce, o.routed_enforce);
    cat(batch, o.batch);
    cat(gather_self, o.gather_self);
  }
  size_t samples() const { return parse.size(); }
};

/// A sampled enforcement answer, checked against the reference after
/// the phase (never on the timed path).
struct Check {
  ShardId shard;
  std::string text;
  std::vector<std::string> got;
};

/// What one thread saw during a phase; merged after the join.
struct Log {
  std::vector<Sample> samples;
  Ladder ladder;
  std::vector<Check> checks;
  /// (query text, granted resource) for every routed grant.
  std::vector<std::pair<std::string, std::string>> grants;
  std::vector<double> gen_lag_us;
  std::vector<std::pair<int64_t, int64_t>> checkpoints;  // [start, end] ns
  std::vector<double> checkpoint_ms;
  std::vector<std::string> errors;
  uint64_t calls[kShards] = {};    // routed calls (batch items count each)
  uint64_t queries[kShards] = {};  // enforcement queries per shard
  uint64_t outcomes = 0, candidates = 0, substitutions = 0;
  uint64_t wal_truncated_bytes[kShards] = {};
  uint64_t pages_flushed = 0;
  size_t queue_depth_max = 0;

  void Merge(Log&& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    ladder.Append(o.ladder);
    for (Check& c : o.checks) checks.push_back(std::move(c));
    for (auto& g : o.grants) grants.push_back(std::move(g));
    gen_lag_us.insert(gen_lag_us.end(), o.gen_lag_us.begin(),
                      o.gen_lag_us.end());
    checkpoints.insert(checkpoints.end(), o.checkpoints.begin(),
                       o.checkpoints.end());
    checkpoint_ms.insert(checkpoint_ms.end(), o.checkpoint_ms.begin(),
                         o.checkpoint_ms.end());
    for (std::string& e : o.errors) errors.push_back(std::move(e));
    for (size_t s = 0; s < kShards; ++s) {
      calls[s] += o.calls[s];
      queries[s] += o.queries[s];
      wal_truncated_bytes[s] += o.wal_truncated_bytes[s];
    }
    pages_flushed += o.pages_flushed;
    outcomes += o.outcomes;
    candidates += o.candidates;
    substitutions += o.substitutions;
    queue_depth_max = std::max(queue_depth_max, o.queue_depth_max);
  }
};

/// Public counters of every layer, captured around a phase.
struct Counters {
  policy::StoreStatsSnapshot stats[kShards];
  uint64_t seq[kShards] = {};
  uint64_t wal_bytes[kShards] = {};
  uint64_t retries = 0, deadline_misses = 0, admission_rejected = 0;
};

/// The benchmark's record of every lease it holds. A resource is identified
/// by (shard, resource): each shard serves its own copy of the world.
class Ledger {
 public:
  /// False when the resource already has a live lease — a double grant.
  bool Grant(ShardId shard, const core::Lease& lease) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_pair(shard, RefKey(lease.resource));
    ever_.insert(key);
    return live_.emplace(key, lease.id).second;
  }
  /// Called before the Release is sent, so a re-grant of the resource
  /// can never race the bookkeeping.
  void Forget(ShardId shard, const core::Lease& lease) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(std::make_pair(shard, RefKey(lease.resource)));
  }
  bool EverHeld(ShardId shard, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return ever_.count(std::make_pair(shard, key)) > 0;
  }
  std::map<std::pair<ShardId, std::string>, uint64_t> Live() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<ShardId, std::string>, uint64_t> live_;
  std::set<std::pair<ShardId, std::string>> ever_;
};

struct Stack {
  std::unique_ptr<shard::ShardCluster> cluster;
  std::unique_ptr<shard::ShardMap> map;
  std::unique_ptr<shard::ShardRouter> router;  // Destroyed first.

  /// Closes the router before the cluster it routes to.
  void Close() {
    router.reset();
    map.reset();
    cluster.reset();
  }
};

shard::ShardClusterOptions ClusterOptions(const Spec& spec) {
  shard::ShardClusterOptions o;
  o.num_shards = kShards;
  o.durable.fsync_mode = spec.fsync;
  return o;
}

/// Which streams a phase runs, and for how long.
struct Plan {
  int64_t duration_ns = 0;
  int lease_open = 0, read_open = 0;
  int lease_closed = 0, read_closed = 0;
  bool admin = false;
  bool checkpoints = false;
  bool ladder = false;
};

struct Phase {
  int64_t start_ns = 0, end_ns = 0;
  Log log;
  Counters before, after;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

// ---- The load generator ----------------------------------------------------------------

class Driver {
 public:
  Driver(const Spec& spec, uint64_t seed, std::string dir)
      : spec_(spec), seed_(seed), dir_(std::move(dir)) {}

  Status Prepare();
  Result<double> DiskProbe() const;
  Status Setup();
  Phase RunPhase(const Plan& plan, uint64_t phase_id);
  Status TailAndReopen(std::vector<std::string>* errors);
  Status Finish() { return stack_.router->Drain(); }
  void CheckReferences(const Log& log, std::vector<std::string>* errors);

  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<std::string>& lease_texts() const { return lease_texts_; }
  size_t read_pool_size() const { return read_texts_.size(); }
  double fsync_probe_us() const { return fsync_probe_us_; }
  Counters Snap() const;
  Log CheckpointAll();

 private:
  Status OpenStack(const std::string& root);
  Status LoadWorld();
  Status WarmUp();

  std::vector<shard::BatchItem> MakeBatch(std::mt19937_64& rng) const;
  const std::string& Tenant(std::mt19937_64& rng) const {
    return tenants_[std::uniform_int_distribution<size_t>(
        0, tenants_.size() - 1)(rng)];
  }
  const std::string& LeaseText(std::mt19937_64& rng) const {
    return lease_texts_[std::uniform_int_distribution<size_t>(
        0, lease_texts_.size() - 1)(rng)];
  }

  struct Held {
    int64_t due_ns;
    std::string key;
    ShardId shard;
    core::Lease lease;
  };
  bool DoAcquire(int64_t intended, std::mt19937_64& rng, bool ladder,
                 Log* log, Held* held);
  void DoRelease(const Held& h, int64_t intended, Log* log, bool timed);
  void DoBatch(int64_t intended, std::mt19937_64& rng, bool ladder,
               uint64_t n, Log* log);
  void AcquireLadder(const std::string& key, const std::string& text,
                     double routed_us, Log* log);
  void BatchLadder(const std::vector<shard::BatchItem>& items, Log* log);

  void LeaseOpen(const Plan& plan, int64_t start, int64_t end, uint64_t seed,
                 Log* log);
  void LeaseClosed(int64_t end, uint64_t seed, Log* log);
  void ReadOpen(const Plan& plan, int64_t start, int64_t end, uint64_t seed,
                double rate, Log* log);
  void ReadClosed(int64_t end, uint64_t seed, Log* log);
  void Admin(int64_t start, int64_t end, uint64_t seed, Log* log);
  void Checkpointer(int64_t start, int64_t end, Log* log);

  const Spec& spec_;
  uint64_t seed_;
  std::string dir_;
  std::unique_ptr<World> world_;
  std::vector<std::string> tenants_;
  std::vector<std::string> tenants_of_[kShards];
  std::vector<std::string> lease_texts_;
  std::vector<std::string> read_texts_;
  /// One read text per (resource type, activity) pair: the warm-up sweep.
  std::vector<std::string> sweep_texts_;
  std::unique_ptr<ZipfSampler> zipf_;
  double fsync_probe_us_ = 0;
  std::vector<double> setup_s_;
  std::string root_;
  Stack stack_;
  Ledger ledger_;
  std::atomic<size_t> checks_taken_{0};
};

/// Raw fsync cost of this disk with the cluster idle: the median of
/// kFsyncProbeWrites synced 128-byte writes.
Result<double> Driver::DiskProbe() const {
  const std::string path = dir_ + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return Status::ExecutionError("cannot open " + path);
  char buf[128];
  std::memset(buf, 'x', sizeof(buf));
  std::vector<double> us;
  for (int i = 0; i < kFsyncProbeWrites; ++i) {
    const int64_t t0 = NowNs();
    if (::write(fd, buf, sizeof(buf)) != static_cast<ssize_t>(sizeof(buf)) ||
        ::fsync(fd) != 0) {
      ::close(fd);
      return Status::ExecutionError("fsync probe failed");
    }
    us.push_back(Us(NowNs() - t0));
  }
  ::close(fd);
  std::filesystem::remove(path);
  return Median(us);
}

Status Driver::Prepare() {
  WFRM_ASSIGN_OR_RETURN(fsync_probe_us_, DiskProbe());

  policy::SyntheticConfig config = spec_.world;
  config.seed = kWorldSeed;
  WFRM_ASSIGN_OR_RETURN(world_, World::Build(config));

  shard::ShardMap map(kShards);
  for (size_t i = 0; i < kTenants; ++i) {
    tenants_.push_back("tenant-" + std::to_string(i));
    tenants_of_[map.Resolve(tenants_.back())].push_back(tenants_.back());
  }
  for (size_t s = 0; s < kShards; ++s) {
    if (tenants_of_[s].empty()) {
      return Status::Internal("no tenant routes to shard " + std::to_string(s));
    }
  }
  std::mt19937 qrng(static_cast<uint32_t>(kWorldSeed));
  if (spec_.lease_texts > 0) {
    WFRM_ASSIGN_OR_RETURN(
        lease_texts_,
        world_->QueryPool(spec_.lease_texts, qrng, spec_.lease_filter));
  }
  if (spec_.read_texts > 0) {
    WFRM_ASSIGN_OR_RETURN(read_texts_,
                          world_->QueryPool(spec_.read_texts, qrng,
                                            spec_.read_filter, &sweep_texts_));
    zipf_ = std::make_unique<ZipfSampler>(read_texts_.size(), kZipfS);
  }
  return Status::OK();
}

Status Driver::OpenStack(const std::string& root) {
  WFRM_ASSIGN_OR_RETURN(stack_.cluster,
                        shard::ShardCluster::Open(root, ClusterOptions(spec_)));
  stack_.map = std::make_unique<shard::ShardMap>(kShards);
  // Router options at their defaults: unbounded queues, breaker off.
  stack_.router = std::make_unique<shard::ShardRouter>(stack_.cluster.get(),
                                                       stack_.map.get());
  return Status::OK();
}

Status Driver::LoadWorld() {
  for (size_t s = 0; s < kShards; ++s) {
    const RequestContext ctx = Ctx();
    const std::string& key = tenants_of_[s].front();
    WFRM_RETURN_NOT_OK(stack_.router->ExecuteRdl(key, world_->rdl(), &ctx));
    WFRM_RETURN_NOT_OK(stack_.router->AddPolicyText(key, world_->pl(), &ctx));
    // Persist the loaded world, so measured checkpoints carry only what
    // the workload itself changed.
    WFRM_RETURN_NOT_OK(stack_.cluster->Checkpoint(static_cast<ShardId>(s)));
  }
  return Status::OK();
}

Status Driver::WarmUp() {
  auto run = [this](const std::vector<shard::BatchItem>& items) {
    const RequestContext ctx = Ctx();
    for (const auto& r : stack_.router->EnforceBatch(items, &ctx)) {
      WFRM_RETURN_NOT_OK(r.outcome.status());
    }
    return Status::OK();
  };
  // Every lease text once per shard, read-only: an Acquire runs the same
  // enforcement, so this fills the same caches without journaling.
  std::vector<shard::BatchItem> leases;
  for (const std::string& text : lease_texts_) {
    for (size_t s = 0; s < kShards; ++s) {
      leases.push_back({tenants_of_[s].front(), text});
    }
  }
  if (!leases.empty()) WFRM_RETURN_NOT_OK(run(leases));
  if (read_texts_.empty()) return Status::OK();
  // Every (resource type, activity) pair once per shard, which builds the
  // compiled tables; then batches from the measured distribution until
  // the rewrite LRUs are full and a round builds no table.
  std::vector<shard::BatchItem> sweep;
  for (const std::string& text : sweep_texts_) {
    for (size_t s = 0; s < kShards; ++s) {
      sweep.push_back({tenants_of_[s].front(), text});
    }
    if (sweep.size() >= kBatchItems) {
      WFRM_RETURN_NOT_OK(run(sweep));
      sweep.clear();
    }
  }
  if (!sweep.empty()) WFRM_RETURN_NOT_OK(run(sweep));
  std::mt19937_64 rng(kWorldSeed);
  auto builds = [this] {
    uint64_t n = 0;
    for (ShardId s = 0; s < kShards; ++s) {
      n += stack_.router->ShardStats(s).compiled_builds;
    }
    return n;
  };
  for (int round = 0; round < 32; ++round) {
    const uint64_t before = builds();
    for (int i = 0; i < 64; ++i) WFRM_RETURN_NOT_OK(run(MakeBatch(rng)));
    bool full = true;
    for (ShardId s = 0; s < kShards; ++s) {
      full = full && stack_.cluster->Primary(s)
                             ->rm()
                             .policy_manager()
                             .rewrite_cache_size() >= 1024;
    }
    if (full && builds() == before) break;
  }
  return Status::OK();
}

Status Driver::Setup() {
  double total = 0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || total < kMinSetupSeconds);
       ++i) {
    if (stack_.router != nullptr) {
      WFRM_RETURN_NOT_OK(stack_.router->Drain());
      stack_.Close();
      std::filesystem::remove_all(root_);
    }
    root_ = dir_ + "/cluster" + std::to_string(i);
    std::filesystem::remove_all(root_);
    const int64_t t0 = NowNs();
    WFRM_RETURN_NOT_OK(OpenStack(root_));
    WFRM_RETURN_NOT_OK(LoadWorld());
    WFRM_RETURN_NOT_OK(WarmUp());
    setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += setup_s_.back();
  }
  return Status::OK();
}

Counters Driver::Snap() const {
  Counters c;
  for (ShardId s = 0; s < kShards; ++s) {
    auto primary = stack_.cluster->Primary(s);
    c.stats[s] = stack_.router->ShardStats(s);
    c.seq[s] = primary->last_seq();
    c.wal_bytes[s] = primary->wal_bytes();
  }
  c.retries = stack_.router->retries();
  c.deadline_misses = stack_.router->deadline_misses();
  c.admission_rejected = stack_.router->admission_rejected();
  return c;
}

std::vector<shard::BatchItem> Driver::MakeBatch(std::mt19937_64& rng) const {
  // A worklist refresh: items spread evenly over both shards.
  std::vector<shard::BatchItem> items;
  items.reserve(kBatchItems);
  for (size_t i = 0; i < kBatchItems; ++i) {
    const auto& keys = tenants_of_[i % kShards];
    const std::string& key = keys[std::uniform_int_distribution<size_t>(
        0, keys.size() - 1)(rng)];
    items.push_back({key, read_texts_[(*zipf_)(rng)]});
  }
  return items;
}

// ---- Lease stream ------------------------------------------------------------

bool Driver::DoAcquire(int64_t intended, std::mt19937_64& rng, bool ladder,
                       Log* log, Held* held) {
  const std::string& key = Tenant(rng);
  const std::string& text = LeaseText(rng);
  const RequestContext ctx = Ctx();
  const int64_t start = NowNs();
  Result<core::Lease> lease = stack_.router->Acquire(key, text, &ctx);
  const int64_t end = NowNs();
  log->samples.push_back({intended, start, end, Kind::kAcquire, lease.ok()});
  // Everything below runs after the latency is recorded.
  const ShardId shard = stack_.router->HomeOf(key);
  ++log->calls[shard];
  ++log->queries[shard];
  if (!lease.ok()) {
    log->errors.push_back("acquire failed: " + lease.status().ToString());
    return false;
  }
  if (!ledger_.Grant(shard, *lease)) {
    log->errors.push_back("double grant of " + RefKey(lease->resource) +
                          " on shard " + std::to_string(shard));
  }
  log->grants.emplace_back(text, RefKey(lease->resource));
  *held = Held{end + kHoldUs * 1000, key, shard, *lease};
  if (ladder) AcquireLadder(key, text, Us(end - start), log);
  return true;
}

void Driver::DoRelease(const Held& h, int64_t intended, Log* log,
                       bool timed) {
  ledger_.Forget(h.shard, h.lease);
  const RequestContext ctx = Ctx();
  const int64_t start = NowNs();
  Status st = stack_.router->Release(h.key, h.lease, &ctx);
  const int64_t end = NowNs();
  if (timed) {
    log->samples.push_back({intended, start, end, Kind::kRelease, st.ok()});
    ++log->calls[h.shard];
  }
  if (!st.ok()) {
    log->errors.push_back("release of ledger lease " +
                          RefKey(h.lease.resource) +
                          " failed: " + st.ToString());
  }
}

/// The ladder for one routed Acquire: the same request re-issued at each
/// lower layer's public entry point on the key's home primary.
void Driver::AcquireLadder(const std::string& key, const std::string& text,
                           double routed_us, Log* log) {
  auto primary = stack_.cluster->Primary(stack_.router->HomeOf(key));
  const RequestContext ctx = Ctx();
  int64_t t0 = NowNs();
  Result<rql::RqlQuery> query = rql::ParseAndBindRql(text, primary->org());
  int64_t t1 = NowNs();
  if (!query.ok()) {
    log->errors.push_back("ladder parse failed: " + query.status().ToString());
    return;
  }
  auto enforced =
      primary->rm().policy_manager().EnforcePrimaryShared(*query, nullptr, &ctx);
  int64_t t2 = NowNs();
  auto submitted = primary->rm().Submit(text, ctx);
  int64_t t3 = NowNs();
  Result<core::Lease> lease = primary->Acquire(text, ctx);
  int64_t t4 = NowNs();
  Status released = lease.ok() ? primary->Release(*lease) : lease.status();
  int64_t t5 = NowNs();
  if (!enforced.ok() || !submitted.ok() || !released.ok()) {
    log->errors.push_back("ladder rung failed for " + text + ": " +
                          released.ToString());
    return;
  }
  // Lease streams see no outcome on the routed path; the read-only
  // Submit rung supplies the candidate counts.
  ++log->outcomes;
  log->candidates += submitted->candidates.size();
  log->substitutions += submitted->used_substitution ? 1 : 0;
  log->ladder.routed_acquire.push_back(routed_us);
  log->ladder.parse.push_back(Us(t1 - t0));
  log->ladder.enforce.push_back(Us(t2 - t1));
  log->ladder.submit.push_back(Us(t3 - t2));
  log->ladder.lease_submit.push_back(Us(t3 - t2));
  log->ladder.durable_acquire.push_back(Us(t4 - t3));
  log->ladder.durable_release.push_back(Us(t5 - t4));
}

void Driver::LeaseOpen(const Plan& plan, int64_t start, int64_t end,
                       uint64_t seed, Log* log) {
  std::mt19937_64 rng(seed);
  const double per_thread = spec_.lease_rate / plan.lease_open;
  std::exponential_distribution<double> gap(per_thread / 1e9);
  std::deque<Held> held;  // Fixed hold: due times arrive in order.
  double next = static_cast<double>(start) + gap(rng);
  uint64_t n = 0;
  for (;;) {
    const bool release = !held.empty() && held.front().due_ns <= next;
    const int64_t when =
        release ? held.front().due_ns : static_cast<int64_t>(next);
    if (when >= end || NowNs() >= end) break;
    SleepUntilNs(when);
    log->gen_lag_us.push_back(Us(NowNs() - when));
    if (release) {
      Held h = std::move(held.front());
      held.pop_front();
      DoRelease(h, when, log, /*timed=*/true);
    } else {
      Held h;
      if (DoAcquire(when, rng, plan.ladder && (++n % kLadderEvery == 0), log,
                    &h)) {
        held.push_back(std::move(h));
      }
      next += gap(rng);
    }
  }
  for (const Held& h : held) DoRelease(h, 0, log, /*timed=*/false);
}

void Driver::LeaseClosed(int64_t end, uint64_t seed, Log* log) {
  std::mt19937_64 rng(seed);
  while (NowNs() < end) {
    Held h;
    if (!DoAcquire(NowNs(), rng, false, log, &h)) continue;
    const int64_t now = NowNs();
    DoRelease(h, now, log, /*timed=*/true);
  }
}

// ---- Read stream -------------------------------------------------------------

void Driver::DoBatch(int64_t intended, std::mt19937_64& rng, bool ladder,
                     uint64_t n, Log* log) {
  std::vector<shard::BatchItem> items = MakeBatch(rng);
  const RequestContext ctx = Ctx();
  const int64_t start = NowNs();
  std::vector<shard::BatchItemResult> results =
      stack_.router->EnforceBatch(items, &ctx);
  const int64_t end = NowNs();
  bool ok = true;
  for (const auto& r : results) ok = ok && r.outcome.ok();
  log->samples.push_back({intended, start, end, Kind::kEnforce, ok});
  // Everything below runs after the latency is recorded.
  const bool check = n % kCheckEvery == 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const ShardId shard = results[i].shard;
    ++log->calls[shard];
    ++log->queries[shard];
    if (!results[i].outcome.ok()) {
      log->errors.push_back("enforce failed: " +
                            results[i].outcome.status().ToString());
      continue;
    }
    const core::QueryOutcome& out = *results[i].outcome;
    ++log->outcomes;
    log->candidates += out.candidates.size();
    log->substitutions += out.used_substitution ? 1 : 0;
    // Every "nothing available" answer is checked; other answers are
    // sampled.
    if ((!out.ok() || check) && checks_taken_.fetch_add(1) < kMaxChecks) {
      log->checks.push_back({shard, items[i].rql, CandidateKeys(out)});
    }
  }
  if (ladder) {
    for (ShardId s = 0; s < kShards; ++s) {
      log->queue_depth_max =
          std::max(log->queue_depth_max, stack_.router->queue_depth(s));
    }
    BatchLadder(items, log);
  }
}

/// The ladder for one EnforceBatch: the batch re-issued as is, then each
/// item through the routed single read and at each lower layer on its
/// home primary. Every rung re-issues requests the routed batch has just
/// warmed, so rungs compare with each other, not with the routed call.
void Driver::BatchLadder(const std::vector<shard::BatchItem>& items,
                         Log* log) {
  {
    const RequestContext ctx = Ctx();
    const int64_t t0 = NowNs();
    auto again = stack_.router->EnforceBatch(items, &ctx);
    log->ladder.batch.push_back(Us(NowNs() - t0));
    for (const auto& r : again) {
      if (!r.outcome.ok()) {
        log->errors.push_back("ladder batch failed: " +
                              r.outcome.status().ToString());
      }
    }
  }
  double shard_submit_us[kShards] = {};
  for (const shard::BatchItem& item : items) {
    const ShardId shard = stack_.router->HomeOf(item.routing_key);
    auto primary = stack_.cluster->Primary(shard);
    const RequestContext ctx = Ctx();
    int64_t t0 = NowNs();
    auto routed = stack_.router->Enforce(item.routing_key, item.rql, &ctx);
    int64_t t1 = NowNs();
    Result<rql::RqlQuery> query =
        rql::ParseAndBindRql(item.rql, primary->org());
    int64_t t2 = NowNs();
    if (!routed.ok() || !query.ok()) {
      log->errors.push_back("ladder failed for " + item.rql);
      return;
    }
    auto enforced = primary->rm().policy_manager().EnforcePrimaryShared(
        *query, nullptr, &ctx);
    int64_t t3 = NowNs();
    auto submitted = primary->rm().Submit(item.rql, ctx);
    int64_t t4 = NowNs();
    if (!enforced.ok() || !submitted.ok()) {
      log->errors.push_back("ladder rung failed for " + item.rql);
      return;
    }
    log->ladder.routed_enforce.push_back(Us(t1 - t0));
    log->ladder.parse.push_back(Us(t2 - t1));
    log->ladder.enforce.push_back(Us(t3 - t2));
    log->ladder.submit.push_back(Us(t4 - t3));
    shard_submit_us[shard] += Us(t4 - t3);
  }
  log->ladder.gather_self.push_back(
      log->ladder.batch.back() -
      *std::max_element(shard_submit_us, shard_submit_us + kShards));
}

void Driver::ReadOpen(const Plan& plan, int64_t start, int64_t end,
                      uint64_t seed, double rate, Log* log) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate / 1e9);
  double next = static_cast<double>(start) + gap(rng);
  uint64_t n = 0;
  while (next < static_cast<double>(end) && NowNs() < end) {
    const int64_t when = static_cast<int64_t>(next);
    SleepUntilNs(when);
    log->gen_lag_us.push_back(Us(NowNs() - when));
    ++n;
    DoBatch(when, rng, plan.ladder && n % kLadderEvery == 0, n, log);
    next += gap(rng);
  }
}

void Driver::ReadClosed(int64_t end, uint64_t seed, Log* log) {
  std::mt19937_64 rng(seed);
  uint64_t n = 0;
  while (NowNs() < end) DoBatch(NowNs(), rng, false, ++n, log);
}

// ---- Admin stream and checkpoints --------------------------------------------

void Driver::Admin(int64_t start, int64_t end, uint64_t seed, Log* log) {
  // A steady stream: a fixed period, so every slice of the phase sees the
  // same number of invalidations. Only the policy text is random.
  std::mt19937_64 rng(seed);
  const double period = 1e9 / spec_.admin_rate;
  const std::string& key = tenants_of_[0].front();
  const std::string& act = world_->reserved_activity();
  std::optional<int64_t> added;
  double next = static_cast<double>(start) + period / 2;
  auto remove = [&](int64_t intended, bool timed) {
    auto primary = stack_.cluster->Primary(0);
    const int64_t t0 = NowNs();
    Status st = primary->RemoveRequirementGroup(*added);
    const int64_t t1 = NowNs();
    if (timed) {
      log->samples.push_back({intended, t0, t1, Kind::kMutation, st.ok()});
      ++log->calls[0];
    }
    if (!st.ok()) log->errors.push_back("remove group: " + st.ToString());
    added.reset();
  };
  while (next < static_cast<double>(end) && NowNs() < end) {
    const int64_t when = static_cast<int64_t>(next);
    SleepUntilNs(when);
    if (added.has_value()) {
      remove(when, true);
    } else {
      // A requirement on the reserved activity: it bumps shard 0's epoch
      // but changes no answer the read and lease streams can observe.
      const std::string text =
          "Require " + policy::SyntheticWorkload::ResourceName(rng() % 64) +
          " Where Experience >= " + std::to_string(rng() % 20) + " For " +
          act + " With " + act + "_p0 >= 0 And " + act + "_p0 <= 99;";
      auto primary = stack_.cluster->Primary(0);
      const int64_t group = primary->store().next_group();
      const RequestContext ctx = Ctx();
      const int64_t t0 = NowNs();
      Status st = stack_.router->AddPolicyText(key, text, &ctx);
      const int64_t t1 = NowNs();
      log->samples.push_back({when, t0, t1, Kind::kMutation, st.ok()});
      ++log->calls[0];
      if (!st.ok()) {
        log->errors.push_back("add policy: " + st.ToString());
      } else if (primary->store().next_group() != group + 1) {
        log->errors.push_back("add policy did not allocate group " +
                              std::to_string(group));
      } else {
        added = group;
      }
    }
    next += period;
  }
  if (added.has_value()) remove(0, false);
}

void Driver::Checkpointer(int64_t start, int64_t end, Log* log) {
  const int64_t period = spec_.checkpoint_period_ms * 1'000'000;
  for (int64_t when = start + period; when < end; when += period) {
    SleepUntilNs(when);
    Log one = CheckpointAll();
    log->Merge(std::move(one));
  }
}

/// Checkpoints every shard once, timing each call.
Log Driver::CheckpointAll() {
  Log log;
  for (ShardId s = 0; s < kShards; ++s) {
    auto primary = stack_.cluster->Primary(s);
    const uint64_t wal_before = primary->wal_bytes();
    const uint64_t pages_before = primary->page_stats().pager.disk_writes;
    const int64_t t0 = NowNs();
    Status st = stack_.cluster->Checkpoint(s);
    const int64_t t1 = NowNs();
    if (!st.ok()) log.errors.push_back("checkpoint: " + st.ToString());
    const uint64_t wal_after = primary->wal_bytes();
    log.pages_flushed += primary->page_stats().pager.disk_writes - pages_before;
    if (wal_before > wal_after) {
      log.wal_truncated_bytes[s] += wal_before - wal_after;
    }
    log.checkpoints.emplace_back(t0, t1);
    log.checkpoint_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return log;
}

// ---- Phases --------------------------------------------------------------------

Phase Driver::RunPhase(const Plan& plan, uint64_t phase_id) {
  Phase phase;
  phase.before = Snap();
  // Threads start together slightly in the future.
  phase.start_ns = NowNs() + 5'000'000;
  phase.end_ns = phase.start_ns + plan.duration_ns;
  const int64_t start = phase.start_ns, end = phase.end_ns;
  const uint64_t base = Mix(seed_ ^ (phase_id << 32));

  std::vector<std::unique_ptr<Log>> logs;
  std::vector<std::thread> threads;
  auto spawn = [&](auto fn) {
    logs.push_back(std::make_unique<Log>());
    Log* log = logs.back().get();
    const uint64_t seed = Mix(base + logs.size());
    threads.emplace_back([fn, log, seed] { fn(log, seed); });
  };
  for (int i = 0; i < plan.lease_open; ++i) {
    spawn([&, this](Log* log, uint64_t seed) {
      LeaseOpen(plan, start, end, seed, log);
    });
  }
  for (int i = 0; i < plan.lease_closed; ++i) {
    spawn([&, this](Log* log, uint64_t seed) { LeaseClosed(end, seed, log); });
  }
  for (int i = 0; i < plan.read_open; ++i) {
    spawn([&, this](Log* log, uint64_t seed) {
      ReadOpen(plan, start, end, seed, spec_.read_rate / plan.read_open, log);
    });
  }
  for (int i = 0; i < plan.read_closed; ++i) {
    spawn([&, this](Log* log, uint64_t seed) { ReadClosed(end, seed, log); });
  }
  if (plan.admin) {
    spawn([&, this](Log* log, uint64_t seed) { Admin(start, end, seed, log); });
  }
  if (plan.checkpoints) {
    spawn([&, this](Log* log, uint64_t) { Checkpointer(start, end, log); });
  }
  for (std::thread& t : threads) t.join();
  for (auto& log : logs) phase.log.Merge(std::move(*log));
  phase.after = Snap();
  return phase;
}

void Driver::CheckReferences(const Log& log, std::vector<std::string>* errors) {
  // Every grant must be a resource the reference world offers for the
  // request.
  for (const auto& [text, got] : log.grants) {
    auto ref = world_->Reference(text);
    if (!ref.ok() || !std::binary_search(ref->begin(), ref->end(), got)) {
      errors->push_back("granted " + got + " not in the reference answer of " +
                        text);
    }
  }
  // Sampled enforcement answers equal the reference, except for
  // resources the lease stream held at some point (those are correctly
  // absent while leased).
  for (const Check& c : log.checks) {
    auto ref = world_->Reference(c.text);
    if (!ref.ok()) {
      errors->push_back("reference failed: " + ref.status().ToString());
      continue;
    }
    std::vector<std::string> missing, extra;
    std::set_difference(ref->begin(), ref->end(), c.got.begin(), c.got.end(),
                        std::back_inserter(missing));
    std::set_difference(c.got.begin(), c.got.end(), ref->begin(), ref->end(),
                        std::back_inserter(extra));
    bool bad = !extra.empty();
    for (const std::string& m : missing) {
      bad = bad || !ledger_.EverHeld(c.shard, m);
    }
    if (bad) {
      errors->push_back("shard " + std::to_string(c.shard) + " answered " +
                        std::to_string(c.got.size()) + " candidates, reference " +
                        std::to_string(ref->size()) + ", for " + c.text);
    }
  }
}

Status Driver::TailAndReopen(std::vector<std::string>* errors) {
  // A deliberately unreleased tail of leases must survive a graceful
  // drain and a fresh open of the same homes.
  std::mt19937_64 rng(Mix(seed_ + 3));
  Log log;
  for (size_t i = 0; i < spec_.tail_leases; ++i) {
    Held h;
    DoAcquire(NowNs(), rng, false, &log, &h);
  }
  CheckReferences(log, errors);
  for (std::string& e : log.errors) errors->push_back(std::move(e));
  uint64_t seq[kShards];
  for (ShardId s = 0; s < kShards; ++s) {
    seq[s] = stack_.cluster->Primary(s)->last_seq();
  }
  WFRM_RETURN_NOT_OK(stack_.router->Drain());
  stack_.Close();
  WFRM_ASSIGN_OR_RETURN(auto reopened,
                        shard::ShardCluster::Open(root_, ClusterOptions(spec_)));
  const auto live = ledger_.Live();
  size_t listed = 0;
  for (ShardId s = 0; s < kShards; ++s) {
    auto primary = reopened->Primary(s);
    if (primary->last_seq() != seq[s]) {
      errors->push_back("shard " + std::to_string(s) + " reopened at seq " +
                        std::to_string(primary->last_seq()) + ", drained at " +
                        std::to_string(seq[s]));
    }
    for (const core::Lease& lease : primary->rm().ListLeases()) {
      ++listed;
      auto it = live.find(std::make_pair(s, RefKey(lease.resource)));
      if (it == live.end() || it->second != lease.id) {
        errors->push_back("reopened shard " + std::to_string(s) +
                          " holds lease " + std::to_string(lease.id) + " on " +
                          RefKey(lease.resource) + " the ledger does not");
      }
    }
  }
  if (listed != live.size()) {
    errors->push_back("reopened cluster lists " + std::to_string(listed) +
                      " leases, ledger holds " + std::to_string(live.size()));
  }
  return reopened->Shutdown();
}

// ---- Reporting -----------------------------------------------------------------

std::vector<double> Latencies(const Phase& p, Kind kind) {
  std::vector<double> v;
  for (const Sample& s : p.log.samples) {
    if (s.kind == kind && s.ok) v.push_back(Us(s.end_ns - s.intended_ns));
  }
  return v;
}

/// Windows a phase is cut into for the reported statistics.
constexpr int kWindows = 8;

/// The q-quantile of each of kWindows equal slices of the phase.
std::vector<double> WindowQuantiles(const Phase& p, Kind kind, double q) {
  std::vector<double> per_window[kWindows];
  const int64_t len = p.end_ns - p.start_ns;
  for (const Sample& s : p.log.samples) {
    if (s.kind != kind || !s.ok || s.intended_ns < p.start_ns) continue;
    const int64_t w = (s.intended_ns - p.start_ns) * kWindows / len;
    if (w < kWindows) per_window[w].push_back(Us(s.end_ns - s.intended_ns));
  }
  std::vector<double> qs;
  for (auto& v : per_window) {
    if (!v.empty()) qs.push_back(Quantile(std::move(v), q));
  }
  return qs;
}

/// Successful calls per second in each of kWindows equal slices.
std::vector<double> WindowRates(const Phase& p) {
  double n[kWindows] = {};
  const int64_t len = p.end_ns - p.start_ns;
  for (const Sample& s : p.log.samples) {
    if (!s.ok || s.end_ns < p.start_ns || s.end_ns >= p.end_ns) continue;
    n[(s.end_ns - p.start_ns) * kWindows / len] += 1;
  }
  std::vector<double> rates;
  for (double c : n) rates.push_back(c * kWindows / p.seconds());
  return rates;
}

void PrintWindows(const char* name, const std::vector<double>& v) {
  std::printf("# %s per window:", name);
  for (double x : v) std::printf(" %.1f", x);
  std::printf("\n");
}

struct Attempts {
  uint64_t attempted = 0, failed = 0;
  void Add(const Phase& p) {
    for (const Sample& s : p.log.samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
  }
};

Kind PrimaryKind(const Spec& spec) {
  return spec.read_rate > 0 ? Kind::kEnforce : Kind::kAcquire;
}

/// One ungated figure with the sample count behind it.
void PrintTail(const char* name, const std::vector<double>& v, double q) {
  std::printf("%s %.3f us (n=%zu)\n", name, Quantile(v, q), v.size());
}

void EndToEnd(const Spec& spec, const Driver& d, const Phase& open,
              const std::optional<Phase>& peak, Report* r) {
  const std::vector<double> acquire = Latencies(open, Kind::kAcquire);
  const std::vector<double> release = Latencies(open, Kind::kRelease);
  const std::vector<double> enforce = Latencies(open, Kind::kEnforce);
  const std::vector<double> mutation = Latencies(open, Kind::kMutation);
  // The per-stream figures, where the workload has the stream.
  if (!acquire.empty()) {
    PrintTail("acquire_p50_us", acquire, 0.5);
    PrintTail("acquire_p99_us", acquire, 0.99);
    PrintTail("release_p99_us", release, 0.99);
  }
  if (!enforce.empty()) {
    PrintTail("enforce_p50_us", enforce, 0.5);
    PrintTail("enforce_p99_us", enforce, 0.99);
  }
  if (!mutation.empty()) PrintTail("mutation_p99_us", mutation, 0.99);
  if (peak.has_value()) {
    const char* names[] = {"acquire", "release", "enforce_batch", "mutation"};
    std::printf("# peak phase ok calls/s:");
    for (int k = 0; k < 4; ++k) {
      std::printf(" %s %.1f", names[k],
                  static_cast<double>(
                      Latencies(*peak, static_cast<Kind>(k)).size()) /
                      peak->seconds());
    }
    std::printf("\n");
  }
  Attempts a;
  a.Add(open);
  if (peak.has_value()) a.Add(*peak);
  std::printf("error_rate %.6f fraction (%llu of %llu calls)\n",
              a.attempted == 0 ? 0.0 : double(a.failed) / double(a.attempted),
              static_cast<unsigned long long>(a.failed),
              static_cast<unsigned long long>(a.attempted));

  const Kind k = PrimaryKind(spec);
  r->Add("setup_s", "s", Median(d.setup_s()));
  const std::vector<double> p50s = WindowQuantiles(open, k, 0.5);
  const std::vector<double> goodput = WindowRates(open);
  const std::vector<double> peaks =
      peak.has_value() ? WindowRates(*peak) : std::vector<double>{};
  PrintWindows("latency_p50_us", p50s);
  PrintWindows("goodput_ops_s", goodput);
  PrintWindows("peak_ops_s", peaks);
  r->Add("latency_p50_us", "us", Median(p50s));
  r->Add("goodput_ops_s", "ops/s", Median(goodput));
  r->Add("peak_ops_s", "ops/s", Median(peaks));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PerLayer(const Spec& spec, const Driver& d, const Phase& a,
              const Phase& b, const Log& ckpt, Report* r) {
  const Ladder& L = b.log.ladder;
  const Counters& c0 = a.before;
  const Counters& c1 = a.after;
  const bool leases = PrimaryKind(spec) == Kind::kAcquire;
  uint64_t ops = 0;
  for (const Sample& s : a.log.samples) ops += s.ok ? 1 : 0;

  // store
  uint64_t appends = 0, wal_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    appends += c1.seq[s] - c0.seq[s];
    wal_bytes += c1.wal_bytes[s] + a.log.wal_truncated_bytes[s] -
                 c0.wal_bytes[s];
  }
  // The WalWriter syncs every fsync_interval_records appends at
  // `interval`, never at `off`, and once per checkpoint truncation in
  // both; its sync counter is exported only through a metrics registry,
  // which this benchmark leaves detached.
  const double fsyncs =
      (spec.fsync == store::FsyncMode::kInterval
           ? static_cast<double>(appends) /
                 static_cast<double>(
                     ClusterOptions(spec).durable.fsync_interval_records)
           : 0.0) +
      static_cast<double>(a.log.checkpoints.size());
  const auto& ck = a.log.checkpoint_ms.empty() ? ckpt.checkpoint_ms
                                               : a.log.checkpoint_ms;
  std::vector<double> during;
  for (const Sample& s : a.log.samples) {
    for (const auto& [t0, t1] : a.log.checkpoints) {
      if (s.intended_ns < t1 && s.end_ns > t0) {
        during.push_back(Us(s.end_ns - s.intended_ns));
        break;
      }
    }
  }
  const double submit50 = Quantile(L.submit, 0.5);
  const double submit99 = Quantile(L.submit, 0.99);
  const bool ladder_leases = !L.durable_acquire.empty();
  r->Add("store.acquire_self_us_p50", "us",
         ladder_leases ? Quantile(L.durable_acquire, 0.5) -
                             Quantile(L.lease_submit, 0.5)
                       : 0);
  r->Add("store.acquire_self_us_p99", "us",
         ladder_leases ? Quantile(L.durable_acquire, 0.99) -
                             Quantile(L.lease_submit, 0.99)
                       : 0);
  r->Add("store.release_us_p99", "us", Quantile(L.durable_release, 0.99));
  r->Add("store.wal_appends_per_op", "1/op", Ratio(double(appends), double(ops)));
  r->Add("store.wal_bytes_per_op", "B/op", Ratio(double(wal_bytes), double(ops)));
  r->Add("store.fsyncs_per_op", "1/op", Ratio(fsyncs, double(ops)));
  r->Add("store.checkpoint_ms_p50", "ms", Quantile(ck, 0.5));
  r->Add("store.checkpoint_ms_max", "ms", Quantile(ck, 1.0));
  r->Add("store.pages_flushed", "count",
         double(a.log.pages_flushed + ckpt.pages_flushed));
  r->Add("store.ops_during_checkpoint_p99_us", "us", Quantile(during, 0.99));

  // policy / rql
  policy::StoreStatsSnapshot total;
  for (size_t s = 0; s < kShards; ++s) {
    const policy::StoreStatsSnapshot dlt = c1.stats[s] - c0.stats[s];
    total.rewrite_cache_hits += dlt.rewrite_cache_hits;
    total.rewrite_cache_misses += dlt.rewrite_cache_misses;
    total.cache_hits += dlt.cache_hits;
    total.cache_misses += dlt.cache_misses;
    total.cache_invalidations += dlt.cache_invalidations;
    total.retrievals += dlt.retrievals;
    total.candidate_rows += dlt.candidate_rows;
  }
  r->Add("policy.enforce_us_p50", "us", Quantile(L.enforce, 0.5));
  r->Add("policy.enforce_us_p99", "us", Quantile(L.enforce, 0.99));
  r->Add("policy.rewrite_hit_rate", "fraction",
         Ratio(double(total.rewrite_cache_hits),
               double(total.rewrite_cache_hits + total.rewrite_cache_misses)));
  r->Add("policy.cache_hit_rate", "fraction", total.CacheHitRate());
  r->Add("policy.candidate_rows_per_retrieval", "rows",
         Ratio(double(total.candidate_rows), double(total.retrievals)));
  for (size_t s = 0; s < kShards; ++s) {
    const policy::StoreStatsSnapshot dlt = c1.stats[s] - c0.stats[s];
    const std::string sfx = ".s" + std::to_string(s);
    r->Add("policy.cache_invalidations" + sfx, "count",
           double(dlt.cache_invalidations));
    r->Add("policy.compiled_builds" + sfx, "count", double(dlt.compiled_builds));
    r->Add("policy.compiled_probes_per_query" + sfx, "1/query",
           Ratio(double(dlt.compiled_probes), double(a.log.queries[s])));
  }
  r->Add("rql.parse_us_p50", "us", Quantile(L.parse, 0.5));

  // core
  r->Add("core.submit_us_p50", "us", submit50);
  r->Add("core.submit_us_p99", "us", submit99);
  r->Add("core.exec_self_us_p50", "us",
         submit50 - Quantile(L.enforce, 0.5) - Quantile(L.parse, 0.5));
  const Log& seen = a.log.outcomes > 0 ? a.log : b.log;
  r->Add("core.candidates_per_query", "1/query",
         Ratio(double(seen.candidates), double(seen.outcomes)));
  r->Add("core.substitution_rate", "fraction",
         Ratio(double(seen.substitutions), double(seen.outcomes)));

  // shard
  const double mean_calls =
      double(a.log.calls[0] + a.log.calls[1]) / double(kShards);
  r->Add("shard.route_self_us_p50", "us",
         leases ? Quantile(L.routed_acquire, 0.5) -
                      Quantile(L.durable_acquire, 0.5)
                : Quantile(L.routed_enforce, 0.5) - submit50);
  r->Add("shard.gather_self_us_p50", "us", Quantile(L.gather_self, 0.5));
  r->Add("shard.gather_self_us_p99", "us", Quantile(L.gather_self, 0.99));
  r->Add("shard.queue_depth_max", "count", double(b.log.queue_depth_max));
  r->Add("shard.imbalance", "ratio",
         Ratio(double(std::max(a.log.calls[0], a.log.calls[1])), mean_calls));
  r->Add("shard.retries", "count", double(c1.retries - c0.retries));
  r->Add("shard.deadline_misses", "count",
         double(c1.deadline_misses - c0.deadline_misses));
  r->Add("shard.admission_rejected", "count",
         double(c1.admission_rejected - c0.admission_rejected));

  // harness
  const std::vector<double> la = Latencies(a, PrimaryKind(spec));
  const std::vector<double> lb = Latencies(b, PrimaryKind(spec));
  r->Add("harness.gen_lag_p99_us", "us", Quantile(a.log.gen_lag_us, 0.99));
  r->Add("harness.samples", "count", double(L.samples()));
  r->Add("harness.fsync_probe_us", "us", d.fsync_probe_us());
  r->Add("trace.overhead_frac", "fraction", Ratio(Median(lb), Median(la)) - 1);

  // The ungated end-to-end tails, from the untraced half.
  r->Add("e2e.latency_p99_us", "us", Quantile(la, 0.99));
  r->Add("e2e.acquire_p99_us", "us",
         Quantile(Latencies(a, Kind::kAcquire), 0.99));
  r->Add("e2e.release_p99_us", "us",
         Quantile(Latencies(a, Kind::kRelease), 0.99));
  r->Add("e2e.enforce_p99_us", "us",
         Quantile(Latencies(a, Kind::kEnforce), 0.99));
  r->Add("e2e.mutation_p99_us", "us",
         Quantile(Latencies(a, Kind::kMutation), 0.99));
  Attempts at;
  at.Add(a);
  r->Add("e2e.error_rate", "fraction",
         Ratio(double(at.failed), double(at.attempted)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0 &&
         argc % 2 == 1;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "stackbench: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  return Fail("refusing to report from an unoptimised build");
#endif
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      return Fail(
          "usage: stackbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> --dir <scratch dir>");
    }
  } catch (const std::exception&) {
    return Fail("bad argument value");
  }
  const std::vector<Spec> specs = Specs();
  auto it = std::find_if(specs.begin(), specs.end(),
                         [&](const Spec& s) { return s.name == args.workload; });
  if (it == specs.end()) return Fail("unknown workload " + args.workload);
  const Spec& spec = *it;
  std::filesystem::create_directories(args.dir);

  Driver d(spec, args.seed, args.dir);
  Status st = d.Prepare();
  if (!st.ok()) return Fail("prepare: " + st.ToString());

  std::printf("# stackbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u build=optimized shards=%zu fsync=%s "
              "fsync_probe_us=%.1f (median of %d synced 128-byte writes)\n",
              std::thread::hardware_concurrency(), kShards,
              store::FsyncModeName(spec.fsync),
              d.fsync_probe_us(), kFsyncProbeWrites);
  std::printf("# offered: lease %.0f acquire/s x %d threads (hold %lld us, "
              "%zu texts); read %.0f EnforceBatch/s x %d threads (%zu items, "
              "%zu texts, zipf %.2f); admin %.0f mutations/s; checkpoint "
              "every %lld ms; peak threads lease %d read %d\n",
              spec.lease_rate, spec.lease_threads,
              static_cast<long long>(kHoldUs), d.lease_texts().size(),
              spec.read_rate, spec.read_threads, kBatchItems,
              d.read_pool_size(), kZipfS, spec.admin_rate,
              static_cast<long long>(spec.checkpoint_period_ms),
              spec.peak_lease_threads, spec.peak_read_threads);

  st = d.Setup();
  if (!st.ok()) return Fail("setup: " + st.ToString());
  std::printf("# setup_s samples:");
  for (double s : d.setup_s()) std::printf(" %.4f", s);
  std::printf("\n");

  const int64_t total_ns = static_cast<int64_t>(args.seconds * 1e9);
  Plan open;
  open.lease_open = spec.lease_threads;
  open.read_open = spec.read_threads;
  open.admin = spec.admin_rate > 0;
  open.checkpoints = spec.checkpoint_period_ms > 0;

  std::vector<std::string> errors;
  Report report;
  Attempts attempts;
  auto collect = [&](const Phase& p) {
    attempts.Add(p);
    d.CheckReferences(p.log, &errors);
    errors.insert(errors.end(), p.log.errors.begin(), p.log.errors.end());
  };
  if (!args.trace) {
    open.duration_ns = static_cast<int64_t>(total_ns * kOpenShare);
    Phase o = d.RunPhase(open, 1);
    collect(o);
    std::optional<Phase> peak;
    if (spec.peak_lease_threads + spec.peak_read_threads > 0) {
      Plan p;
      p.duration_ns = total_ns - open.duration_ns;
      p.lease_closed = spec.peak_lease_threads;
      p.read_closed = spec.peak_read_threads;
      // Background writes keep running beside a read peak.
      if (spec.peak_read_threads > 0) {
        p.lease_open = spec.lease_threads;
        p.admin = open.admin;
        p.checkpoints = open.checkpoints;
      }
      peak = d.RunPhase(p, 2);
      collect(*peak);
    }
    EndToEnd(spec, d, o, peak, &report);
    std::printf("# samples behind latency percentiles: %zu\n",
                Latencies(o, PrimaryKind(spec)).size());
  } else {
    open.duration_ns = total_ns / 2;
    Phase a = d.RunPhase(open, 1);
    collect(a);
    Log ckpt;
    if (a.log.checkpoints.empty()) {
      // Workloads without a checkpoint timer: checkpoint once after the
      // untraced half, so the store's checkpoint cost is still measured.
      ckpt = d.CheckpointAll();
      errors.insert(errors.end(), ckpt.errors.begin(), ckpt.errors.end());
    }
    open.ladder = true;
    Phase b = d.RunPhase(open, 2);
    collect(b);
    PerLayer(spec, d, a, b, ckpt, &report);
    std::printf("# ladder samples: %zu (1 in %llu requests)\n",
                b.log.ladder.samples(),
                static_cast<unsigned long long>(kLadderEvery));
  }

  if (spec.tail_leases > 0) {
    st = d.TailAndReopen(&errors);
  } else {
    st = d.Finish();
  }
  if (!st.ok()) errors.push_back("shutdown: " + st.ToString());

  std::printf("%s", report.Text().c_str());
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::printf("# CHECK FAILED: %s\n", errors[i].c_str());
  }
  if (errors.size() > 20) {
    std::printf("# ... %zu failed checks in all\n", errors.size());
  }
  const bool correct = errors.empty() && attempts.failed == 0;
  std::printf("%s\n", report.Json(correct, attempts.attempted,
                                  attempts.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
