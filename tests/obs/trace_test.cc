#include "obs/trace.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace wfrm::obs {
namespace {

TEST(TraceSpanTest, BuildsOrderedTreeWithAttrs) {
  SimulatedClock clock;
  EnforcementTrace trace("Select X From Y", &clock);
  TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name(), "submit");

  clock.AdvanceMicros(10);
  TraceSpan* a = root->Child("stage_a");
  a->AddAttr("policy", "PID 100");
  a->AddAttr("policy", "PID 101");
  a->AddAttr("fanout", int64_t{2});
  clock.AdvanceMicros(5);
  TraceSpan* a1 = a->Child("inner");
  clock.AdvanceMicros(1);
  a1->End();
  clock.AdvanceMicros(4);
  a->End();
  TraceSpan* b = root->Child("stage_b");
  b->End();

  // Children in creation order; repeated keys preserved in order.
  ASSERT_EQ(root->children().size(), 2u);
  EXPECT_EQ(root->children()[0]->name(), "stage_a");
  EXPECT_EQ(root->children()[1]->name(), "stage_b");
  EXPECT_EQ(a->Attr("policy"), "PID 100");
  EXPECT_EQ(a->AttrAll("policy"),
            (std::vector<std::string>{"PID 100", "PID 101"}));
  EXPECT_EQ(a->Attr("fanout"), "2");
  EXPECT_EQ(a->Attr("absent"), "");

  // Timing: children nest within their parent.
  EXPECT_EQ(a->start_micros(), 10);
  EXPECT_EQ(a->end_micros(), 20);
  EXPECT_EQ(a1->start_micros(), 15);
  EXPECT_EQ(a1->end_micros(), 16);
  EXPECT_GE(a1->start_micros(), a->start_micros());
  EXPECT_LE(a1->end_micros(), a->end_micros());

  // Find is pre-order over descendants.
  EXPECT_EQ(root->Find("inner"), a1);
  EXPECT_EQ(root->Find("nope"), nullptr);
}

TEST(TraceSpanTest, EndIsIdempotentEvenAtTimeZero) {
  SimulatedClock clock;  // Starts at 0: end==0 must still mean "ended".
  EnforcementTrace trace("q", &clock);
  TraceSpan* s = trace.root()->Child("s");
  EXPECT_FALSE(s->ended());
  s->End();
  EXPECT_TRUE(s->ended());
  EXPECT_EQ(s->end_micros(), 0);
  clock.AdvanceMicros(100);
  s->End();  // First End() wins.
  EXPECT_EQ(s->end_micros(), 0);
  EXPECT_EQ(s->duration_micros(), 0);
}

TEST(TraceSpanTest, FinishClosesChildrenBeforeParents) {
  SimulatedClock clock;
  EnforcementTrace trace("q", &clock);
  TraceSpan* outer = trace.root()->Child("outer");
  TraceSpan* inner = outer->Child("inner");
  clock.AdvanceMicros(7);
  trace.Finish();
  EXPECT_TRUE(trace.root()->ended());
  EXPECT_TRUE(outer->ended());
  EXPECT_TRUE(inner->ended());
  EXPECT_LE(inner->end_micros(), outer->end_micros());
  EXPECT_LE(outer->end_micros(), trace.root()->end_micros());
}

TEST(TraceSpanTest, NullSafeHelpersAreNoOpsOnNull) {
  EXPECT_EQ(Child(nullptr, "x"), nullptr);
  Attr(nullptr, "k", "v");
  Attr(nullptr, "k", int64_t{1});
  End(nullptr);  // Must not crash.
  ScopedSpan scoped(nullptr, "y");
  EXPECT_EQ(scoped.get(), nullptr);
}

TEST(TraceSpanTest, ScopedSpanEndsOnDestruction) {
  SimulatedClock clock;
  EnforcementTrace trace("q", &clock);
  const TraceSpan* raw = nullptr;
  {
    ScopedSpan scoped(trace.root(), "scoped");
    raw = scoped.get();
    ASSERT_NE(raw, nullptr);
    EXPECT_FALSE(raw->ended());
  }
  EXPECT_TRUE(raw->ended());
}

TEST(EnforcementTraceTest, ToStringRendersIndentedTree) {
  SimulatedClock clock;
  EnforcementTrace trace("Select X From Y", &clock);
  TraceSpan* s = trace.root()->Child("enforce_primary");
  s->AddAttr("rewrite_cache", "miss");
  trace.Finish();
  std::string text = trace.ToString();
  EXPECT_NE(text.find("submit"), std::string::npos);
  EXPECT_NE(text.find("enforce_primary"), std::string::npos);
  EXPECT_NE(text.find("rewrite_cache=miss"), std::string::npos);
  // The child line is indented below the root line.
  EXPECT_LT(text.find("submit"), text.find("enforce_primary"));
}

TEST(EnforcementTraceTest, ToJsonContainsQueryAndSpans) {
  SimulatedClock clock;
  EnforcementTrace trace("Select \"X\"", &clock);
  trace.root()->Child("stage")->AddAttr("k", "v");
  trace.Finish();
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"query\":\"Select \\\"X\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("[\"k\",\"v\"]"), std::string::npos);
}

TEST(TraceSinkTest, BoundedCapacityDropsOldest) {
  TraceSink sink(2);
  for (int i = 0; i < 3; ++i) {
    std::string query = "q";
    query += std::to_string(i);
    auto t = std::make_shared<EnforcementTrace>(query);
    t->Finish();
    sink.Add(std::move(t));
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  auto drained = sink.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0]->query_text(), "q1");
  EXPECT_EQ(drained[1]->query_text(), "q2");
  EXPECT_EQ(sink.size(), 0u);
}

}  // namespace
}  // namespace wfrm::obs
