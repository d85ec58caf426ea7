#include "common/strings.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

namespace wfrm {
namespace {

TEST(StringsTest, AsciiCaseConversion) {
  EXPECT_EQ(AsciiToLower("Hello World_9"), "hello world_9");
  EXPECT_EQ(AsciiToUpper("Hello World_9"), "HELLO WORLD_9");
  EXPECT_EQ(AsciiToLower(""), "");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("Engineer", "ENGINEER"));
  EXPECT_FALSE(EqualsIgnoreCase("Engineer", "Engineers"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringsTest, CompareIgnoreCaseOrdersLikeLoweredStrings) {
  const char* words[] = {"", "a", "A", "ab", "aB", "b", "_x", "Zeta",
                         "zeta", "Role12", "role2", "\xe9t\xc9"};
  for (const char* a : words) {
    for (const char* b : words) {
      const std::string la = AsciiToLower(a), lb = AsciiToLower(b);
      const int want = la < lb ? -1 : (lb < la ? 1 : 0);
      EXPECT_EQ(CompareIgnoreCase(a, b), want) << a << " vs " << b;
    }
  }
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\nabc\r\n"), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, SplitAndJoin) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(Join(pieces, "|"), "a|b||c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("solo", ',').size(), 1u);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringsTest, CaseInsensitiveHashAgreesWithEq) {
  CaseInsensitiveHash h;
  CaseInsensitiveEq eq;
  EXPECT_TRUE(eq("Programmer", "PROGRAMMER"));
  EXPECT_EQ(h("Programmer"), h("PROGRAMMER"));
  EXPECT_NE(h("Programmer"), h("Analyst"));  // Overwhelmingly likely.
}

TEST(StringsTest, CaseInsensitiveUnorderedSet) {
  std::unordered_set<std::string, CaseInsensitiveHash, CaseInsensitiveEq> set;
  set.insert("Engineer");
  EXPECT_TRUE(set.contains("ENGINEER"));
  EXPECT_TRUE(set.contains("engineer"));
  EXPECT_FALSE(set.contains("Analyst"));
}

}  // namespace
}  // namespace wfrm
