// Concurrency stress for the shared-lock store and the epoch-checked
// caches: reader threads retrieve and enforce continuously while a writer
// mutates the policy base (and another edits the hierarchy). Every
// observed result must be one of the two valid snapshots — the base
// policy set, or the base set plus the complete marker policy — never
// a torn mix. Run under TSan by the sanitizer CI job (the suite name
// matches its Concurrency filter).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "policy/policy_manager.h"
#include "policy/policy_store.h"
#include "rql/rql.h"
#include "testutil/paper_org.h"

namespace wfrm::policy {
namespace {

constexpr char kFigure4[] =
    "Select ContactInfo From Engineer Where Location = 'PA' "
    "For Programming With NumberOfLines = 35000 And Location = 'Mexico'";
constexpr char kMarkerWhere[] = "Experience > 42";
constexpr char kMarkerPolicy[] =
    "Require Programmer Where Experience > 42 For Programming "
    "With NumberOfLines > 1000";

// Two DNF disjuncts, both enclosing Figure 4's specification: a
// retrieval sees both marker rows or neither.
constexpr char kMarkerSubstitution[] =
    "Substitute Engineer By Analyst Where Experience > 42 For Programming "
    "With NumberOfLines > 1000 Or Location = 'Mexico'";

constexpr int kReaders = 4;
constexpr int kReaderIterations = 400;
constexpr int kWriterCycles = 150;

class StoreConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<PolicyStore> store_;
};

TEST_F(StoreConcurrencyTest, ReadersNeverObserveTornRetrievals) {
  auto query = rql::ParseAndBindRql(kFigure4, *org_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const rel::ParamMap spec = query->spec.AsParams();

  // The base snapshot, taken before any concurrent writer runs: every
  // concurrent retrieval must return exactly this set, with at most
  // one complete marker row on top.
  auto base = store_->RelevantRequirements("Programmer", "Programming", spec);
  ASSERT_TRUE(base.ok());
  std::set<int64_t> base_pids;
  for (const auto& row : *base) base_pids.insert(row.pid);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReaderIterations && !stop.load(); ++i) {
        auto r =
            store_->RelevantRequirements("Programmer", "Programming", spec);
        if (!r.ok()) {
          ++violations;
          continue;
        }
        std::set<int64_t> seen;
        int marker_rows = 0;
        for (const auto& row : *r) {
          if (row.where_clause == kMarkerWhere) {
            ++marker_rows;
          } else {
            seen.insert(row.pid);
          }
        }
        // Base rows must be present in full and nothing else; the
        // marker is all-or-nothing.
        if (seen != base_pids || marker_rows > 1) ++violations;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < kWriterCycles; ++i) {
      auto parsed = ParsePolicy(kMarkerPolicy);
      ASSERT_TRUE(parsed.ok());
      auto group = store_->AddPolicy(*parsed);
      ASSERT_TRUE(group.ok());
      ASSERT_TRUE(store_->RemoveRequirementGroup(*group).ok());
    }
    stop.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(StoreConcurrencyTest, ReadersNeverObserveTornSubstitutions) {
  auto query = rql::ParseAndBindRql(kFigure4, *org_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const rel::ParamMap spec = query->spec.AsParams();
  const rel::Expr* where = query->select->where.get();
  auto is_marker = [](const RelevantSubstitution& row) {
    return row.substituting_resource == "Analyst";
  };

  auto base = store_->RelevantSubstitutions("Engineer", where, "Programming",
                                            spec);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  std::set<int64_t> base_pids;
  for (const auto& row : *base) base_pids.insert(row.pid);
  ASSERT_FALSE(base_pids.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReaderIterations && !stop.load(); ++i) {
        auto r = store_->RelevantSubstitutions("Engineer", where,
                                               "Programming", spec);
        if (!r.ok()) {
          ++violations;
          continue;
        }
        std::set<int64_t> seen;
        int marker_rows = 0;
        for (const auto& row : *r) {
          if (is_marker(row)) {
            ++marker_rows;
          } else {
            seen.insert(row.pid);
          }
        }
        // The base set in full, plus the whole marker group or none.
        if (seen != base_pids || (marker_rows != 0 && marker_rows != 2)) {
          ++violations;
        }
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < kWriterCycles; ++i) {
      auto parsed = ParsePolicy(kMarkerSubstitution);
      ASSERT_TRUE(parsed.ok());
      auto group = store_->AddPolicy(*parsed);
      ASSERT_TRUE(group.ok());
      ASSERT_TRUE(store_->RemoveSubstitutionGroup(*group).ok());
    }
    stop.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);

  // The marker really is a two-row group the readers could see.
  auto parsed = ParsePolicy(kMarkerSubstitution);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(store_->AddPolicy(*parsed).ok());
  auto with_marker = store_->RelevantSubstitutions("Engineer", where,
                                                   "Programming", spec);
  ASSERT_TRUE(with_marker.ok());
  EXPECT_EQ(with_marker->size(), base_pids.size() + 2);
}

TEST_F(StoreConcurrencyTest, EnforcementNeverServesTornRewrites) {
  PolicyManager pm(org_.get(), store_.get());
  auto query = rql::ParseAndBindRql(kFigure4, *org_);
  ASSERT_TRUE(query.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReaderIterations && !stop.load(); ++i) {
        auto enforced = pm.EnforcePrimary(*query);
        if (!enforced.ok()) {
          ++violations;
          continue;
        }
        // The marker's conjunct appears in either every rewritten
        // query for the marker's resource type or none of them — a mix
        // would be a torn rewrite.
        int with_marker = 0;
        int without_marker = 0;
        for (size_t q = 0; q < enforced->queries.size(); ++q) {
          if (enforced->qualified_types[q] != "Programmer") continue;
          const std::string text = enforced->queries[q].ToString();
          if (text.find("42") != std::string::npos) {
            ++with_marker;
          } else {
            ++without_marker;
          }
        }
        if (with_marker > 0 && without_marker > 0) ++violations;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < kWriterCycles; ++i) {
      auto parsed = ParsePolicy(kMarkerPolicy);
      ASSERT_TRUE(parsed.ok());
      auto group = store_->AddPolicy(*parsed);
      ASSERT_TRUE(group.ok());
      ASSERT_TRUE(store_->RemoveRequirementGroup(*group).ok());
    }
    stop.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(StoreConcurrencyTest, HierarchyEditsRaceCleanlyWithFanOut) {
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  auto base = store_->QualifiedSubtypes("Engineer", "Programming");
  ASSERT_TRUE(base.ok());
  const size_t base_types = base->size();

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReaderIterations && !stop.load(); ++i) {
        auto r = store_->QualifiedSubtypes("Engineer", "Programming");
        // New Programmer sub-types only ever extend the fan-out; a
        // result below the base size would be a torn closure.
        if (!r.ok() || r->size() < base_types) ++violations;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          org_->DefineResourceType("Junior" + std::to_string(i), "Programmer")
              .ok());
    }
    stop.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace wfrm::policy
