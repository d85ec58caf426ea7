// The prepared request path: ResourceManager::Submit(text) probes the
// policy manager's memo by the raw text before parsing, and a hit runs
// the entry's bound scans. These tests hold a warm prepared Submit to a
// caches-off Submit of the same text (candidates, rows, order and
// rendered queries), check that every policy, hierarchy and catalog
// change rebuilds the entry while live rows and relationship tuples
// never need to, and run Submits beside an epoch-bumping mutator.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/resource_manager.h"
#include "policy/policy_ast.h"
#include "policy/synthetic.h"
#include "testutil/paper_org.h"

namespace wfrm::core {
namespace {

constexpr char kFigure4[] =
    "Select ContactInfo From Engineer Where Location = 'PA' "
    "For Programming With NumberOfLines = 35000 And Location = 'Mexico'";

/// Everything a caller can see of an outcome, rendered for comparison.
std::string Render(const Result<QueryOutcome>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  const QueryOutcome& o = *result;
  std::string out = o.status.ToString() + "\n";
  out += o.used_substitution ? "substituted\n" : "primary\n";
  for (const std::string& q : o.primary_queries) out += "P " + q + "\n";
  for (const std::string& q : o.alternative_queries) out += "A " + q + "\n";
  out += "schema " + o.resources.schema.ToString() + "\n";
  for (const rel::Row& row : o.resources.rows) {
    out += "row";
    for (const rel::Value& v : row) out += " " + v.ToString();
    out += "\n";
  }
  for (const org::ResourceRef& ref : o.candidates) {
    out += "ref " + ref.ToString() + "\n";
  }
  return out;
}

/// Submit(text) with the store's caches (the memo included) off.
Result<QueryOutcome> SubmitCachesOff(const ResourceManager& rm,
                                     policy::PolicyStore* store,
                                     const std::string& text) {
  store->set_cache_enabled(false);
  Result<QueryOutcome> out = rm.Submit(text);
  store->set_cache_enabled(true);
  return out;
}

uint64_t RewriteHits(const policy::PolicyStore& store) {
  return store.stats().Snapshot().rewrite_cache_hits;
}

/// Counted memo probes, hits and misses.
uint64_t RewriteProbes(const policy::PolicyStore& store) {
  const policy::StoreStatsSnapshot s = store.stats().Snapshot();
  return s.rewrite_cache_hits + s.rewrite_cache_misses;
}

/// Random texts of a synthetic world against the caches-off answer:
/// the second Submit of each text is a memo hit, and as leases are
/// taken along the way, texts warmed earlier are re-checked against
/// the changed availability.
void ExpectWarmEqualsCachesOff(const policy::SyntheticConfig& config,
                               uint32_t seed) {
  auto built = policy::SyntheticWorkload::Build(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  policy::SyntheticWorkload& w = **built;
  ResourceManager rm(&w.org(), &w.store());
  std::mt19937 rng(seed);
  std::vector<std::string> texts;
  size_t with_candidates = 0;
  for (int i = 0; i < 120; ++i) {
    auto query = w.RandomQuery(rng);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const std::string text = query->ToString();
    texts.push_back(text);
    (void)rm.Submit(text);  // Prepares and publishes the entry.
    const uint64_t hits = RewriteHits(w.store());
    Result<QueryOutcome> warm = rm.Submit(text);
    EXPECT_GE(RewriteHits(w.store()), hits + 1) << "not a memo hit: " << text;
    ASSERT_EQ(Render(warm), Render(SubmitCachesOff(rm, &w.store(), text)))
        << text;
    if (!warm.ok() || !warm->ok()) continue;
    ++with_candidates;
    if (i % 3 == 0) {
      // Lease the first candidate: later Submits of this and earlier
      // texts must see it busy without any rebuild.
      ASSERT_TRUE(rm.AllocateLease(warm->candidates.front()).ok());
      const std::string& earlier = texts[rng() % texts.size()];
      ASSERT_EQ(Render(rm.Submit(earlier)),
                Render(SubmitCachesOff(rm, &w.store(), earlier)))
          << earlier;
    }
  }
  EXPECT_GT(with_candidates, 10u);
}

TEST(PreparedSubmitTest, WarmEqualsCachesOffOnSection6World) {
  policy::SyntheticConfig config;  // 64x64 hierarchies, q=8, c=8.
  config.instances_per_resource = 16;
  config.seed = 11;
  ExpectWarmEqualsCachesOff(config, 5);
}

TEST(PreparedSubmitTest, WarmEqualsCachesOffOnLeaseWorld) {
  policy::SyntheticConfig config;
  config.q = 2;
  config.c = 4;
  config.instances_per_resource = 64;
  config.seed = 12;
  ExpectWarmEqualsCachesOff(config, 6);
}

class PreparedPaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
    rm_ = std::make_unique<ResourceManager>(org_.get(), store_.get());
  }

  /// Submits `text` warm and checks it against the caches-off answer.
  std::string Warm(const std::string& text) {
    Result<QueryOutcome> warm = rm_->Submit(text);
    EXPECT_EQ(Render(warm), Render(SubmitCachesOff(*rm_, store_.get(), text)))
        << text;
    return Render(warm);
  }

  /// The memo's live entry for `text` (a counted probe of its own).
  std::shared_ptr<const policy::PreparedEnforcement> Entry(
      const std::string& text) {
    return rm_->policy_manager().FindPrepared(text);
  }

  /// Submits `text` twice and expects the second call to be served by
  /// the entry the first one published.
  std::string WarmHit(const std::string& text) {
    (void)rm_->Submit(text);
    auto entry = Entry(text);
    EXPECT_NE(entry, nullptr) << text;
    std::string out = Warm(text);
    EXPECT_EQ(Entry(text), entry) << "rebuilt a live entry";
    return out;
  }

  /// Submits `text` and expects it to replace `old`, the entry in force
  /// before a change.
  std::string Rebuilt(
      const std::string& text,
      const std::shared_ptr<const policy::PreparedEnforcement>& old) {
    EXPECT_NE(old, nullptr);
    std::string out = Warm(text);
    auto entry = Entry(text);
    EXPECT_NE(entry, nullptr) << text;
    EXPECT_NE(entry, old) << "served a stale entry";
    return out;
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<policy::PolicyStore> store_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(PreparedPaperTest, OneCountedProbePerSubmit) {
  // Figure 4 needs no substitution, so each Submit probes exactly once.
  const uint64_t probes = RewriteProbes(*store_);
  const uint64_t hits = RewriteHits(*store_);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rm_->Submit(kFigure4).ok());
  EXPECT_EQ(RewriteProbes(*store_), probes + 5);
  EXPECT_EQ(RewriteHits(*store_), hits + 4);
  EXPECT_EQ(rm_->policy_manager().rewrite_cache_size(), 1u);
  // One entry per text: another spelling of the request is another
  // entry, and the bound-query paths key by the canonical rendering.
  const std::string spelled =
      "select ContactInfo from engineer where Location = 'PA' "
      "for programming with NumberOfLines = 35000 and Location = 'Mexico'";
  EXPECT_EQ(Warm(spelled), Warm(kFigure4));
  EXPECT_EQ(rm_->policy_manager().rewrite_cache_size(), 2u);
  auto query = rql::ParseAndBindRql(spelled, *org_);
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->ToString(), kFigure4);
  const uint64_t before = RewriteHits(*store_);
  ASSERT_TRUE(rm_->policy_manager().EnforcePrimaryShared(*query).ok());
  EXPECT_EQ(RewriteHits(*store_), before + 1);
  EXPECT_EQ(rm_->policy_manager().rewrite_cache_size(), 2u);
}

TEST_F(PreparedPaperTest, PolicyAddAndRemoveRebuild) {
  const std::string before = WarmHit(kFigure4);
  EXPECT_NE(before.find("ref Programmer:bob"), std::string::npos);
  auto original = Entry(kFigure4);
  auto parsed = policy::ParsePolicy(
      "Require Programmer Where Experience > 8 For Programming "
      "With NumberOfLines > 30000");
  ASSERT_TRUE(parsed.ok());
  auto group = store_->AddRequirement(
      std::get<policy::RequirementPolicy>(*parsed));
  ASSERT_TRUE(group.ok());
  const std::string added = Rebuilt(kFigure4, original);
  EXPECT_EQ(added.find("ref Programmer:bob"), std::string::npos) << added;
  EXPECT_NE(added.find("Experience > 8"), std::string::npos) << added;
  auto with_policy = Entry(kFigure4);
  ASSERT_TRUE(store_->RemoveRequirementGroup(*group).ok());
  EXPECT_EQ(Rebuilt(kFigure4, with_policy), before);
}

TEST_F(PreparedPaperTest, NewSubtypeWithAttributesRebuilds) {
  WarmHit(kFigure4);
  auto original = Entry(kFigure4);
  ASSERT_TRUE(org_->DefineResourceType("SeniorProgrammer", "Programmer",
                                       {{"Mentor", rel::DataType::kString}})
                  .ok());
  ASSERT_TRUE(org_->AddResource("SeniorProgrammer", "sam",
                                {{"Location", rel::Value::String("PA")},
                                 {"Language", rel::Value::String("Spanish")},
                                 {"Experience", rel::Value::Int(30)},
                                 {"Mentor", rel::Value::String("bob")}})
                  .ok());
  const std::string after = Rebuilt(kFigure4, original);
  EXPECT_NE(after.find("ref SeniorProgrammer:sam"), std::string::npos)
      << after;
}

TEST_F(PreparedPaperTest, CatalogChangesRebuild) {
  // A Where subquery over a view that does not exist yet fails, and a
  // failure is never memoized.
  const std::string text =
      "Select ContactInfo From Programmer Where Id In "
      "(Select Emp From Mentees) For Programming With NumberOfLines = 100 "
      "And Location = 'PA'";
  EXPECT_NE(Warm(text).find("error"), std::string::npos);
  ASSERT_TRUE(org_->DefineRelationship(
                      "Mentoring", {{"Mentor", rel::DataType::kString},
                                    {"Mentee", rel::DataType::kString}})
                  .ok());
  ASSERT_TRUE(org_->AddRelationshipTuple(
                      "Mentoring",
                      {rel::Value::String("pam"), rel::Value::String("pete")})
                  .ok());
  ASSERT_TRUE(org_->DefineView("Mentees", {"Emp"},
                               "Select Mentee From Mentoring")
                  .ok());
  const std::string defined = WarmHit(text);
  EXPECT_NE(defined.find("ref Programmer:pete"), std::string::npos)
      << defined;
  // The policy epoch ignores the catalog; the entry's catalog version
  // does not. A relationship or a view defined later rebuilds it.
  const uint64_t epoch = store_->epoch();
  auto entry = Entry(text);
  ASSERT_TRUE(org_->DefineRelationship(
                      "Pairs", {{"Left", rel::DataType::kString},
                                {"Right", rel::DataType::kString}})
                  .ok());
  ASSERT_EQ(store_->epoch(), epoch);
  EXPECT_EQ(Rebuilt(text, entry), defined);
  entry = Entry(text);
  ASSERT_TRUE(
      org_->DefineView("Lefts", {"Who"}, "Select Left From Pairs").ok());
  ASSERT_EQ(store_->epoch(), epoch);
  EXPECT_EQ(Rebuilt(text, entry), defined);
}

TEST_F(PreparedPaperTest, LiveRowsShowWithoutRebuild) {
  WarmHit(kFigure4);
  ASSERT_TRUE(org_->AddResource("Programmer", "zoe",
                                {{"Location", rel::Value::String("PA")},
                                 {"Language", rel::Value::String("Spanish")},
                                 {"Experience", rel::Value::Int(9)}})
                  .ok());
  const std::string after = WarmHit(kFigure4);
  EXPECT_NE(after.find("ref Programmer:zoe"), std::string::npos) << after;
}

TEST_F(PreparedPaperTest, RelationshipTuplesShowWithoutRebuild) {
  // zed has no unit, so no manager approves for him...
  const std::string text =
      "Select ContactInfo From Manager For Approval "
      "With Amount = 500 And Requester = 'zed' And Location = 'PA'";
  const std::string before = WarmHit(text);
  EXPECT_EQ(before.find("ref Manager:"), std::string::npos) << before;
  // ...until he joins carol's unit: the Where subquery reads the tuple
  // live on the next warm call.
  ASSERT_TRUE(org_->AddRelationshipTuple(
                      "BelongsTo",
                      {rel::Value::String("zed"), rel::Value::String("U1")})
                  .ok());
  const std::string after = WarmHit(text);
  EXPECT_NE(after.find("ref Manager:carol"), std::string::npos) << after;
}

TEST_F(PreparedPaperTest, LeasesHealthAndUnavailableAreLive) {
  WarmHit(kFigure4);
  // bob busy: substitution finds quinn through a prepared alternative.
  ASSERT_TRUE(rm_->Allocate(org::ResourceRef{"Programmer", "bob"}).ok());
  const std::string busy = WarmHit(kFigure4);
  EXPECT_NE(busy.find("ref Programmer:quinn"), std::string::npos) << busy;
  ASSERT_TRUE(rm_->Release(org::ResourceRef{"Programmer", "bob"}).ok());
  ASSERT_TRUE(rm_->MarkFailed(org::ResourceRef{"Programmer", "bob"}).ok());
  EXPECT_EQ(WarmHit(kFigure4), busy);
  ASSERT_TRUE(rm_->MarkRecovered(org::ResourceRef{"Programmer", "bob"}).ok());
  // The read-only unavailable list goes through the same entry.
  auto hidden = rm_->Submit(kFigure4, std::vector<org::ResourceRef>{
                                          {"Programmer", "bob"}});
  EXPECT_EQ(Render(hidden), busy);
  EXPECT_EQ(rm_->num_allocated(), 0u);
}

TEST_F(PreparedPaperTest, TracedSubmitTakesThePreparedPath) {
  WarmHit(kFigure4);
  auto explained = rm_->ExplainQuery(kFigure4);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->report.find("rewrite cache: hit"), std::string::npos)
      << explained->report;
  EXPECT_EQ(Render(explained->outcome), Warm(kFigure4));
}

// Concurrent Submits of warm texts beside a mutator that bumps the
// policy epoch, defines relationships and inserts instances: every call
// succeeds, and once the mutator stops a warm Submit equals the
// caches-off answer again. Runs under TSan in CI.
TEST(PreparedConcurrencyTest, SubmitsBesideEpochBumpingMutator) {
  auto world = testutil::BuildPaperWorld();
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  ResourceManager rm(world->org.get(), world->store.get());
  const std::vector<std::string> texts = {
      kFigure4,
      "Select ContactInfo From Manager For Approval "
      "With Amount = 500 And Requester = 'alice' And Location = 'PA'",
      "Select Id From Engineer For Analysis "
      "With NumberOfLines = 200 And Location = 'PA'"};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); !stop.load(); ++i) {
        if (!rm.Submit(texts[i % texts.size()]).ok()) ++failures;
      }
    });
  }
  auto parsed = policy::ParsePolicy(
      "Require Programmer Where Experience > 8 For Programming "
      "With NumberOfLines > 30000");
  ASSERT_TRUE(parsed.ok());
  const auto& policy = std::get<policy::RequirementPolicy>(*parsed);
  for (int round = 0; round < 40; ++round) {
    auto group = world->store->AddRequirement(policy);
    ASSERT_TRUE(group.ok());
    ASSERT_TRUE(world->org
                    ->AddResource("Programmer", "p" + std::to_string(round),
                                  {{"Location", rel::Value::String("PA")},
                                   {"Language", rel::Value::String("Spanish")},
                                   {"Experience", rel::Value::Int(round)}})
                    .ok());
    if (round % 10 == 0) {
      ASSERT_TRUE(world->org
                      ->DefineRelationship(
                          "R" + std::to_string(round),
                          {{"A", rel::DataType::kString}})
                      .ok());
    }
    ASSERT_TRUE(world->store->RemoveRequirementGroup(*group).ok());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& text : texts) {
    (void)rm.Submit(text);
    EXPECT_EQ(Render(rm.Submit(text)),
              Render(SubmitCachesOff(rm, world->store.get(), text)))
        << text;
  }
}

}  // namespace
}  // namespace wfrm::core
