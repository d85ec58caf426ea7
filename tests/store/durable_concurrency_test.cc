// Durable Acquire enforces with no home lock, then claims and journals
// under it. These tests pin what that split must keep: a mutation that
// lands between the two phases is never ignored (the grant answers the
// base in force when it is journaled), concurrent acquirers never share
// a resource, and the journal order stays a valid history — every
// journaled grant is in the answer of the world its WAL prefix rebuilds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/resource_manager.h"
#include "obs/metrics.h"
#include "org/org_model.h"
#include "org/rdl_parser.h"
#include "policy/policy_store.h"
#include "store/durable_rm.h"
#include "store/record.h"
#include "store/wal.h"

namespace wfrm::store {
namespace {

constexpr char kRdl[] = R"(
  Define Resource Type Employee
      (ContactInfo String, Location String, Experience Int);
  Define Resource Type Programmer Under Employee;
  Define Activity Type Activity (Location String);
  Define Activity Type Programming Under Activity (NumberOfLines Int);
  Define Relationship BelongsTo (Emp String, Unit String);
  Insert Resource Programmer 'alice'
      (ContactInfo = 'alice@x.com', Location = 'PA', Experience = 8);
  Insert Resource Programmer 'bob'
      (ContactInfo = 'bob@x.com', Location = 'PA', Experience = 3);
)";

constexpr char kQualify[] = "Qualify Programmer For Programming;";

constexpr char kJob[] =
    "Select ContactInfo From Programmer Where Location = 'PA' "
    "For Programming With NumberOfLines = 20000 And Location = 'PA'";

/// kJob minus everyone in the Sales unit: the answer depends on a
/// relationship table, which no store epoch covers.
constexpr char kNotInSalesJob[] =
    "Select ContactInfo From Programmer "
    "Where Id Not In (Select Emp From BelongsTo Where Unit = 'Sales') "
    "For Programming With NumberOfLines = 20000 And Location = 'PA'";

class DurableConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "wfrm_durable_cc_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Opens `dir_` with `rdl` and `pl` journaled; strategy kFirst, so an
  /// unconstrained grant is deterministic.
  std::unique_ptr<DurableResourceManager> OpenHome(
      const char* rdl, const char* pl, DurableOptions options = {}) {
    options.fsync_mode = FsyncMode::kOff;
    options.rm_options.allocation_strategy = core::AllocationStrategy::kFirst;
    auto d = DurableResourceManager::Open(dir_, options);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    if (!d.ok()) return nullptr;
    EXPECT_TRUE((*d)->ExecuteRdl(rdl).ok());
    EXPECT_TRUE((*d)->AddPolicyText(pl).ok());
    return std::move(*d);
  }

  std::string dir_;
};

/// Runs `mutation` once, inside the next Acquire on `d`, after that
/// Acquire enforced its request and before it claims.
void RunBetweenPhasesOnce(DurableResourceManager* d,
                          std::function<void()> mutation) {
  d->TestSetBetweenAcquirePhases(
      [mutation = std::move(mutation), fired = false]() mutable {
        if (fired) return;
        fired = true;
        mutation();
      });
}

// ---- Deterministic interleavings ------------------------------------------

TEST_F(DurableConcurrencyTest, RequirementAddedBetweenPhasesIsEnforced) {
  auto d = OpenHome(kRdl, kQualify);
  ASSERT_NE(d, nullptr);
  RunBetweenPhasesOnce(d.get(), [&d] {
    ASSERT_TRUE(d->AddPolicyText("Require Programmer Where Experience < 5 "
                                 "For Programming With NumberOfLines > 10000;")
                    .ok());
  });
  // Enforced alone, the request answers alice first; the requirement
  // journaled before the grant rules her out.
  auto lease = d->Acquire(kJob);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(lease->resource.id, "bob");
}

TEST_F(DurableConcurrencyTest, QualificationRemovedBetweenPhasesIsEnforced) {
  auto d = OpenHome(kRdl, kQualify);
  ASSERT_NE(d, nullptr);
  auto quals = d->store().ListQualifications();
  ASSERT_EQ(quals.size(), 1u);
  const int64_t pid = quals[0].pid;
  RunBetweenPhasesOnce(d.get(), [&d, pid] {
    ASSERT_TRUE(d->RemoveQualification(pid).ok());
  });
  auto lease = d->Acquire(kJob);
  ASSERT_FALSE(lease.ok()) << "granted " << lease->resource.ToString();
  EXPECT_EQ(lease.status().code(), StatusCode::kNoQualifiedResource)
      << lease.status().ToString();
  EXPECT_EQ(d->rm().num_allocated(), 0u);
}

TEST_F(DurableConcurrencyTest, RelationshipInsertBetweenPhasesIsEnforced) {
  auto d = OpenHome(kRdl, kQualify);
  ASSERT_NE(d, nullptr);
  const uint64_t epoch = d->mutation_epoch();
  RunBetweenPhasesOnce(d.get(), [&d] {
    ASSERT_TRUE(d->ExecuteRdl("Insert Into BelongsTo ('alice', 'Sales')").ok());
  });
  auto lease = d->Acquire(kNotInSalesJob);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(lease->resource.id, "bob");
  // The insert left the store epoch where it was: validating against it
  // would have granted alice.
  EXPECT_EQ(d->mutation_epoch(), epoch);
}

// ---- Stress with a journal-order oracle ------------------------------------

constexpr int kStressProgrammers = 8;
constexpr int kAcquirers = 4;
constexpr size_t kAcquiresPerMutation = 8;

/// Programmers p0..p7 with Experience 0, 2, ..., 14.
std::string StressRdl() {
  std::string rdl = R"(
    Define Resource Type Employee
        (ContactInfo String, Location String, Experience Int);
    Define Resource Type Programmer Under Employee;
    Define Activity Type Activity (Location String);
    Define Activity Type Programming Under Activity (NumberOfLines Int);
    Define Relationship BelongsTo (Emp String, Unit String);
  )";
  for (int i = 0; i < kStressProgrammers; ++i) {
    const std::string id = "p" + std::to_string(i);
    rdl += "Insert Resource Programmer '" + id + "' (ContactInfo = '" + id +
           "@x.com', Location = 'PA', Experience = " + std::to_string(2 * i) +
           ");";
  }
  return rdl;
}

/// Admits p3..p7 while in force: with four acquirers, claims overlap.
constexpr char kStressRequirement[] =
    "Require Programmer Where Experience > 5 "
    "For Programming With NumberOfLines > 10000;";

struct StressResult {
  size_t grants = 0;
  size_t failures = 0;
  /// Leases still held when the acquirers stopped (one per acquirer
  /// when `keep_last` was set).
  std::vector<core::Lease> kept;
};

/// Four acquire/release loops on kNotInSalesJob beside a mutator that
/// adds and removes kStressRequirement, inserts Sales tuples (two of
/// them for real programmers) and, with `checkpoint_every` > 0, takes
/// checkpoints. Asserts no resource is ever held twice and every Release
/// of a granted lease succeeds.
StressResult RunStress(DurableResourceManager* d, int iterations,
                       int checkpoint_every, bool keep_last) {
  std::mutex held_mu;
  std::set<org::ResourceRef> held;
  std::atomic<size_t> grants{0};
  std::atomic<size_t> failures{0};
  std::atomic<int> running{kAcquirers};
  std::vector<core::Lease> kept(kAcquirers);

  std::vector<std::thread> acquirers;
  for (int t = 0; t < kAcquirers; ++t) {
    acquirers.emplace_back([&, t] {
      for (int i = 0; i < iterations; ++i) {
        auto lease = d->Acquire(kNotInSalesJob);
        if (!lease.ok()) {
          // Every candidate held, or claimed by others in every round.
          EXPECT_EQ(lease.status().code(), StatusCode::kResourceUnavailable)
              << lease.status().ToString();
          ++failures;
          continue;
        }
        ++grants;
        {
          std::lock_guard<std::mutex> lock(held_mu);
          EXPECT_TRUE(held.insert(lease->resource).second)
              << lease->resource.ToString() << " granted twice";
        }
        if (keep_last && i == iterations - 1) {
          kept[t] = *lease;
          break;
        }
        // Hold it a moment: with the requirement in force four holders
        // outnumber the candidates, so claims contend.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        {
          // Out of the set before the release: once released, another
          // acquirer may legitimately be granted it.
          std::lock_guard<std::mutex> lock(held_mu);
          held.erase(lease->resource);
        }
        Status released = d->Release(*lease);
        EXPECT_TRUE(released.ok()) << released.ToString();
      }
      --running;
    });
  }

  // One mutation per kAcquiresPerMutation finished acquires, whatever
  // the build's speed: most claims then validate against an unmoved
  // generation (so claims overlap and can race), while every mutation
  // still lands inside some acquirer's window between its phases.
  size_t done_at_last_step = 0;
  auto done = [&] { return grants.load() + failures.load(); };
  for (int step = 0; running.load() > 0; ++step) {
    while (running.load() > 0 &&
           done() < done_at_last_step + kAcquiresPerMutation) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    done_at_last_step = done();
    if (step % 2 == 0) {
      EXPECT_TRUE(d->AddPolicyText(kStressRequirement).ok());
    } else {
      auto groups = d->store().ListRequirements();
      EXPECT_TRUE(groups.ok());
      if (groups.ok()) {
        for (const auto& g : *groups) {
          EXPECT_TRUE(d->RemoveRequirementGroup(g.group).ok());
        }
      }
    }
    if (step % 3 == 0) {
      std::string who = "x" + std::to_string(step);
      if (step == 15) who = "p7";
      if (step == 45) who = "p4";
      EXPECT_TRUE(
          d->ExecuteRdl("Insert Into BelongsTo ('" + who + "', 'Sales')").ok());
    }
    if (checkpoint_every > 0 && step % checkpoint_every == 0) {
      EXPECT_TRUE(d->Checkpoint().ok());
    }
  }
  for (std::thread& t : acquirers) t.join();

  StressResult result;
  result.grants = grants.load();
  result.failures = failures.load();
  for (const core::Lease& lease : kept) {
    if (lease.valid()) result.kept.push_back(lease);
  }
  return result;
}

uint64_t AcquireCount(obs::MetricsRegistry& registry, const char* result) {
  return registry.GetCounter("wfrm_rm_acquires_total", {{"result", result}})
      ->Value();
}

TEST_F(DurableConcurrencyTest, ConcurrentGrantsFollowJournalOrder) {
  obs::MetricsRegistry registry;
  DurableOptions options;
  options.rm_options.metrics = &registry;
  auto d = OpenHome(StressRdl().c_str(), kQualify, options);
  ASSERT_NE(d, nullptr);

  StressResult run = RunStress(d.get(), /*iterations=*/300,
                               /*checkpoint_every=*/0, /*keep_last=*/false);
  EXPECT_GT(run.grants, 0u);
  // One ok per journaled grant, one failed per typed failure, and lost
  // claim rounds now that claims overlap enforcement.
  EXPECT_EQ(AcquireCount(registry, "ok"), run.grants);
  EXPECT_EQ(AcquireCount(registry, "failed"), run.failures);
  EXPECT_GT(registry.GetCounter("wfrm_rm_acquire_races_total")->Value(), 0u);

  // The oracle: replay the journal in order into a lease-free reference
  // world. Each grant must be in the answer of the base its WAL prefix
  // rebuilds — the policies and relationships in force at its position.
  auto scan = ReadWal(dir_ + "/wal.log");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  org::OrgModel org;
  policy::PolicyStore store(&org);
  core::ResourceManager reference(&org, &store);
  std::set<std::string> answer;
  bool stale = true;
  size_t journaled_grants = 0;
  for (const std::string& payload : scan->payloads) {
    auto record = DecodeRecord(payload);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    switch (record->type) {
      case RecordType::kRdl:
        (void)org::ExecuteRdl(record->text, &org);
        stale = true;
        break;
      case RecordType::kPl:
        (void)store.AddPolicyText(record->text);
        stale = true;
        break;
      case RecordType::kRemoveQualification:
        (void)store.RemoveQualification(record->id);
        stale = true;
        break;
      case RecordType::kRemoveRequirementGroup:
        (void)store.RemoveRequirementGroup(record->id);
        stale = true;
        break;
      case RecordType::kRemoveSubstitutionGroup:
        (void)store.RemoveSubstitutionGroup(record->id);
        stale = true;
        break;
      case RecordType::kLeaseAcquire: {
        if (stale) {
          auto outcome = reference.Submit(kNotInSalesJob);
          ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
          answer.clear();
          for (const org::ResourceRef& ref : outcome->candidates) {
            answer.insert(ref.id);
          }
          stale = false;
        }
        EXPECT_EQ(answer.count(record->lease.resource.id), 1u)
            << "grant of " << record->lease.resource.ToString()
            << " at seq " << record->seq
            << " is outside the answer of the base in force there";
        ++journaled_grants;
        break;
      }
      case RecordType::kLeaseRenew:
      case RecordType::kLeaseRelease:
        break;
    }
  }
  EXPECT_EQ(journaled_grants, run.grants);
}

TEST_F(DurableConcurrencyTest, CheckpointsBetweenGrantsKeepHeldLeases) {
  std::vector<core::Lease> kept;
  {
    auto d = OpenHome(StressRdl().c_str(), kQualify);
    ASSERT_NE(d, nullptr);
    StressResult run = RunStress(d.get(), /*iterations=*/200,
                                 /*checkpoint_every=*/5, /*keep_last=*/true);
    EXPECT_GT(run.grants, 0u);
    kept = run.kept;
  }
  // Every checkpoint ran with claims in flight; none may have captured
  // an unjournaled grant or lost a journaled one.
  auto d = DurableResourceManager::Open(dir_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  std::map<org::ResourceRef, uint64_t> expected;
  for (const core::Lease& lease : kept) expected[lease.resource] = lease.id;
  std::map<org::ResourceRef, uint64_t> recovered;
  for (const core::Lease& lease : (*d)->rm().ListLeases()) {
    recovered[lease.resource] = lease.id;
  }
  EXPECT_EQ(recovered, expected);
}

}  // namespace
}  // namespace wfrm::store
