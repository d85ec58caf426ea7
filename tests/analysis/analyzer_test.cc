#include "analysis/workflow_analyzer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/workflow_spec.h"
#include "store/durable_rm.h"
#include "testutil/paper_org.h"

namespace wfrm::analysis {
namespace {

constexpr char kStaffingQuery[] =
    "Select Id From Engineer Where Location = 'PA' For Programming "
    "With NumberOfLines = 20000 And Location = 'PA'";

/// Two-person review over the paper world: primaries are bob and pam
/// (PA programmers with Experience > 5); the Figure 9 substitution
/// policy adds quinn (Cupertino) as the cost-1 substitute.
std::string ReviewScript(size_t tasks) {
  std::string script = "Workflow Review;\n";
  std::string names;
  for (size_t i = 0; i < tasks; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    script += "Task " + name + ": " + kStaffingQuery + ";\n";
    if (i > 0) names += ", ";
    names += name;
  }
  script += "Separate " + names + ";\n";
  return script;
}

class WorkflowAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = testutil::BuildPaperWorld();
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    org_ = std::move(world->org);
    store_ = std::move(world->store);
    rm_ = std::make_unique<core::ResourceManager>(org_.get(), store_.get());
  }

  AnalysisReport Analyze(const std::string& script, AnalysisOptions options) {
    auto spec = ParseWorkflowSpec(script);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    WorkflowAnalyzer analyzer(rm_.get(), options);
    auto report = analyzer.Analyze(*spec);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  }

  std::unique_ptr<org::OrgModel> org_;
  std::unique_ptr<policy::PolicyStore> store_;
  std::unique_ptr<core::ResourceManager> rm_;
};

TEST_F(WorkflowAnalyzerTest, DerivesPrimariesAndSubstitutionTier) {
  AnalysisReport report = Analyze(ReviewScript(2), {});
  ASSERT_EQ(report.candidates.size(), 2u);
  const StepCandidates& step = report.candidates[0];
  ASSERT_EQ(step.candidates.size(), 3u);
  EXPECT_EQ(step.candidates[0].resource.ToString(), "Programmer:bob");
  EXPECT_EQ(step.candidates[0].cost, 0);
  EXPECT_EQ(step.candidates[1].resource.ToString(), "Programmer:pam");
  EXPECT_EQ(step.candidates[1].cost, 0);
  EXPECT_EQ(step.candidates[2].resource.ToString(), "Programmer:quinn");
  EXPECT_EQ(step.candidates[2].cost, 1);

  // Coaxing out the substitution tier allocated nothing.
  EXPECT_EQ(rm_->num_allocated(), 0u);
}

TEST_F(WorkflowAnalyzerTest, SubstitutionTierLeavesLeaseStateUntouched) {
  // Analysis only reads the manager: deriving the substitution tier
  // neither grants nor releases a lease, so the id high-water mark, the
  // allocation count and a lease held beside it are all unchanged.
  auto held = rm_->AllocateLease({"Programmer", "pete"});
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  const uint64_t next_id = rm_->next_lease_id();

  AnalysisReport report = Analyze(ReviewScript(3), {});
  ASSERT_EQ(report.candidates.size(), 3u);
  bool substitute = false;
  for (const WspCandidate& c : report.candidates[0].candidates) {
    if (c.cost > 0) substitute = true;
  }
  EXPECT_TRUE(substitute) << "the substitution tier did not run";

  EXPECT_EQ(rm_->next_lease_id(), next_id);
  EXPECT_EQ(rm_->num_allocated(), 1u);
  EXPECT_TRUE(rm_->IsLeaseActive(*held));
}

TEST_F(WorkflowAnalyzerTest, TwoPersonReviewIsSatisfiableAtCostZero) {
  AnalysisOptions options;
  options.valued = true;
  AnalysisReport report = Analyze(ReviewScript(2), options);
  ASSERT_TRUE(report.solve.satisfiable);
  EXPECT_EQ(report.solve.total_cost, 0);
  EXPECT_FALSE(report.solve.witness[0].resource ==
               report.solve.witness[1].resource);
}

TEST_F(WorkflowAnalyzerTest, ThirdSeparatedStepForcesSubstitution) {
  AnalysisOptions options;
  options.valued = true;
  AnalysisReport report = Analyze(ReviewScript(3), options);
  ASSERT_TRUE(report.solve.satisfiable);
  // bob + pam + the Cupertino substitute: exactly one substitution.
  EXPECT_EQ(report.solve.total_cost, 1);
  size_t substitutes = 0;
  for (const WspAssignment& a : report.solve.witness) {
    if (a.cost > 0) {
      ++substitutes;
      EXPECT_EQ(a.resource.ToString(), "Programmer:quinn");
    }
  }
  EXPECT_EQ(substitutes, 1u);
}

TEST_F(WorkflowAnalyzerTest, UnqualifiedActivityYieldsNamedCore) {
  AnalysisReport report = Analyze(
      "Workflow Bad;\n"
      "Task staff: Select Id From Secretary For Programming "
      "With NumberOfLines = 20000 And Location = 'PA';\n"
      "Task ok: " +
          std::string(kStaffingQuery) + ";\n",
      {});
  ASSERT_FALSE(report.solve.satisfiable);
  EXPECT_EQ(report.solve.core.steps, std::vector<std::string>{"staff"});
  EXPECT_NE(report.solve.core.reason.find("no qualified resource"),
            std::string::npos)
      << report.solve.core.reason;
  EXPECT_NE(report.ToString().find("UNSATISFIABLE"), std::string::npos);
}

TEST_F(WorkflowAnalyzerTest, ZeroResiliencyEqualsPlainSatisfiability) {
  AnalysisReport sat = Analyze(ReviewScript(2), {});
  EXPECT_TRUE(sat.resiliency.checked);
  EXPECT_EQ(sat.resiliency.k, 0u);
  EXPECT_TRUE(sat.resiliency.resilient);
  EXPECT_EQ(sat.resiliency.subsets_checked, 0u);

  // Four pairwise-separated steps over three candidates: UNSAT, and
  // k=0 resiliency mirrors that verdict with no subset sweeps.
  AnalysisReport unsat = Analyze(ReviewScript(4), {});
  EXPECT_FALSE(unsat.solve.satisfiable);
  EXPECT_FALSE(unsat.resiliency.resilient);
  EXPECT_EQ(unsat.resiliency.subsets_checked, 0u);
}

TEST_F(WorkflowAnalyzerTest, OneResiliencyHoldsForTwoStepsNotThree) {
  AnalysisOptions options;
  options.resiliency_k = 1;
  AnalysisReport two = Analyze(ReviewScript(2), options);
  ASSERT_TRUE(two.solve.satisfiable);
  EXPECT_TRUE(two.resiliency.resilient);
  EXPECT_EQ(two.resiliency.universe_size, 3u);
  EXPECT_EQ(two.resiliency.subsets_checked, 3u);
  EXPECT_FALSE(two.resiliency.sampled);

  // Three separated steps consume all three candidates: losing any one
  // resource breaks the workflow.
  AnalysisReport three = Analyze(ReviewScript(3), options);
  ASSERT_TRUE(three.solve.satisfiable);
  EXPECT_FALSE(three.resiliency.resilient);
  ASSERT_EQ(three.resiliency.failing_subset.size(), 1u);
  EXPECT_NE(three.ToString().find("NOT resilient"), std::string::npos);
}

TEST_F(WorkflowAnalyzerTest, SampledResiliencyStaysWithinBudget) {
  AnalysisOptions options;
  options.resiliency_k = 2;
  options.max_resiliency_subsets = 2;  // C(3,2) = 3 > 2 forces sampling
  AnalysisReport report = Analyze(ReviewScript(2), options);
  EXPECT_TRUE(report.resiliency.sampled);
  EXPECT_LE(report.resiliency.subsets_checked, 2u);
}

TEST_F(WorkflowAnalyzerTest, EmitsMetricsAndTrace) {
  obs::MetricsRegistry metrics;
  obs::TraceSink sink;
  AnalysisOptions options;
  options.resiliency_k = 1;
  options.metrics = &metrics;
  options.trace_sink = &sink;
  Analyze(ReviewScript(2), options);

  std::string prom = metrics.RenderPrometheus();
  EXPECT_NE(prom.find("wfrm_analysis_solves_total"), std::string::npos);
  EXPECT_NE(prom.find("wfrm_analysis_search_nodes_total"),
            std::string::npos);
  EXPECT_NE(prom.find("wfrm_analysis_resiliency_subsets_total"),
            std::string::npos);
  EXPECT_NE(prom.find("wfrm_analysis_solve_micros"), std::string::npos);

  auto traces = sink.Drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0]->query_text(), "analyze Review");
  EXPECT_NE(traces[0]->root()->Find("candidates"), nullptr);
  EXPECT_NE(traces[0]->root()->Find("solve"), nullptr);
  EXPECT_NE(traces[0]->root()->Find("resiliency"), nullptr);
}

TEST_F(WorkflowAnalyzerTest, ReportRendersWitnessAndCandidates) {
  AnalysisOptions options;
  options.valued = true;
  AnalysisReport report = Analyze(ReviewScript(3), options);
  std::string text = report.ToString();
  EXPECT_NE(text.find("Workflow analysis: Review"), std::string::npos);
  EXPECT_NE(text.find("SATISFIABLE"), std::string::npos);
  EXPECT_NE(text.find("Programmer:quinn (substitute, cost 1)"),
            std::string::npos)
      << text;
}

// Analysis only reads the manager, also beside real traffic: Analyze
// with the substitution tier runs against a durable home's rm() while
// four threads Acquire and Release and a fifth checkpoints. The journal
// holds exactly the acquirers' records, a reopen restores exactly their
// ledger, and no acquirer is handed a substitute: eight primaries serve
// four acquirers, so the tier the analysis coaxes out (every primary
// treated as busy) must never leak into the allocation table.
TEST(AnalyzerConcurrencyTest, AnalyzeBesideDurableAcquireTrafficIsReadOnly) {
  std::string rdl =
      "Define Resource Type Programmer (Location String, Experience Int);\n"
      "Define Activity Type Programming (NumberOfLines Int);\n";
  for (int i = 0; i < 8; ++i) {
    rdl += "Insert Resource Programmer 'pa" + std::to_string(i) +
           "' (Location = 'PA', Experience = " + std::to_string(6 + i) +
           ");\n";
  }
  rdl += "Insert Resource Programmer 'cu0' (Location = 'Cupertino', "
         "Experience = 9);\n";
  rdl += "Insert Resource Programmer 'cu1' (Location = 'Cupertino', "
         "Experience = 9);\n";
  const std::string pl =
      "Qualify Programmer For Programming;\n"
      "Require Programmer Where Experience > 5 For Programming "
      "With NumberOfLines > 100;\n"
      "Substitute Programmer Where Location = 'PA' "
      "By Programmer Where Location = 'Cupertino' For Programming "
      "With NumberOfLines < 50000;\n";
  const std::string job =
      "Select Id From Programmer Where Location = 'PA' "
      "For Programming With NumberOfLines = 20000";

  std::string tmpl =
      (std::filesystem::temp_directory_path() / "wfrm_analyzer_cc_XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  store::DurableOptions options;
  options.fsync_mode = store::FsyncMode::kOff;
  auto opened = store::DurableResourceManager::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<store::DurableResourceManager> home = std::move(*opened);
  ASSERT_TRUE(home->ExecuteRdl(rdl).ok());
  ASSERT_TRUE(home->AddPolicyText(pl).ok());

  // The caches-off primary answer, taken before any lease is held.
  std::set<std::string> primaries;
  {
    home->store().set_cache_enabled(false);
    auto answer = home->rm().Submit(job);
    home->store().set_cache_enabled(true);
    ASSERT_TRUE(answer.ok() && answer->ok());
    ASSERT_FALSE(answer->used_substitution);
    for (const org::ResourceRef& ref : answer->candidates) {
      primaries.insert(ref.ToString());
    }
    ASSERT_EQ(primaries.size(), 8u);
  }

  const uint64_t seq_before = home->last_seq();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> records{0};
  std::mutex ledger_mu;
  std::map<std::string, uint64_t> ledger;  // Resource -> lease id held.
  std::vector<std::string> errors;
  auto note_error = [&](const std::string& e) {
    std::lock_guard<std::mutex> lock(ledger_mu);
    errors.push_back(e);
  };
  std::vector<std::thread> acquirers;
  for (int t = 0; t < 4; ++t) {
    acquirers.emplace_back([&] {
      while (!stop.load()) {
        auto lease = home->Acquire(job);
        if (!lease.ok()) {
          note_error("acquire: " + lease.status().ToString());
          return;
        }
        ++records;
        const std::string key = lease->resource.ToString();
        if (primaries.count(key) == 0) note_error("granted " + key);
        {
          std::lock_guard<std::mutex> lock(ledger_mu);
          ledger[key] = lease->id;
        }
        if (stop.load()) return;  // Keep the last grant held.
        {
          std::lock_guard<std::mutex> lock(ledger_mu);
          ledger.erase(key);
        }
        Status released = home->Release(*lease);
        if (!released.ok()) {
          note_error("release: " + released.ToString());
          return;
        }
        ++records;
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop.load()) {
      Status st = home->Checkpoint();
      if (!st.ok()) note_error("checkpoint: " + st.ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  auto spec = ParseWorkflowSpec("Workflow Pair;\nTask a: " + job +
                                ";\nTask b: " + job + ";\nSeparate a, b;\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  AnalysisOptions analysis;
  analysis.include_substitution_tier = true;
  WorkflowAnalyzer analyzer(&home->rm(), analysis);
  bool saw_substitute = false;
  // At least 60 analyses, and on until the acquirers journaled 200
  // records beside them.
  for (int i = 0; i < 60 || (records.load() < 200 && i < 100000); ++i) {
    auto report = analyzer.Analyze(*spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const WspCandidate& c : report->candidates[0].candidates) {
      saw_substitute = saw_substitute || c.cost > 0;
    }
  }
  stop = true;
  for (std::thread& t : acquirers) t.join();
  checkpointer.join();
  for (const std::string& e : errors) ADD_FAILURE() << e;
  EXPECT_TRUE(saw_substitute) << "the substitution tier did not run";
  EXPECT_GE(records.load(), 200u);
  EXPECT_EQ(home->last_seq() - seq_before, records.load());

  home.reset();
  auto reopened = store::DurableResourceManager::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<std::string, uint64_t> restored;
  for (const core::Lease& lease : (*reopened)->rm().ListLeases()) {
    restored[lease.resource.ToString()] = lease.id;
  }
  EXPECT_EQ(restored, ledger);
  reopened->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace wfrm::analysis
