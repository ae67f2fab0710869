//===- SupportTest.cpp - Diagnostics, Rng, strings, tables ----------------===//

#include "support/Random.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/TableFormatter.h"

#include "gtest/gtest.h"

#include <set>
#include <sstream>

using namespace npral;

TEST(StatusTest, SuccessByDefault) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.str(), "success");
}

TEST(StatusTest, ErrorCarriesMessageAndLoc) {
  Status S = Status::error("bad thing", SourceLoc{3, 7});
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "bad thing");
  EXPECT_EQ(S.str(), "line 3, column 7: bad thing");
}

TEST(ErrorOrTest, ValueAndError) {
  ErrorOr<int> V(42);
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(*V, 42);
  ErrorOr<int> E(Status::error("nope"));
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.status().message(), "nope");
}

TEST(RngTest, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 50; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng R(99);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(11);
  std::set<int64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtilsTest, Split) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringUtilsTest, ParseIntegerDecimal) {
  EXPECT_EQ(parseInteger("42"), 42);
  EXPECT_EQ(parseInteger("-17"), -17);
  EXPECT_EQ(parseInteger("+5"), 5);
  EXPECT_EQ(parseInteger(" 10 "), 10);
}

TEST(StringUtilsTest, ParseIntegerHex) {
  EXPECT_EQ(parseInteger("0xFF"), 255);
  EXPECT_EQ(parseInteger("0xdeadBEEF"), 0xdeadbeefLL);
  EXPECT_EQ(parseInteger("-0x10"), -16);
}

TEST(StringUtilsTest, ParseIntegerRejectsGarbage) {
  EXPECT_FALSE(parseInteger("abc").has_value());
  EXPECT_FALSE(parseInteger("12x").has_value());
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("-").has_value());
  EXPECT_FALSE(parseInteger("0x").has_value());
}

TEST(StringUtilsTest, ParseIntegerRejectsOverflow) {
  EXPECT_EQ(parseInteger("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parseInteger("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parseInteger("-0x8000000000000000"), INT64_MIN);
  EXPECT_EQ(parseInteger("0x7fffffffffffffff"), INT64_MAX);
  EXPECT_FALSE(parseInteger("99999999999999999999").has_value());
  EXPECT_FALSE(parseInteger("9223372036854775808").has_value());
  EXPECT_FALSE(parseInteger("-9223372036854775809").has_value());
  EXPECT_FALSE(parseInteger("0x8000000000000000").has_value());
  EXPECT_FALSE(parseInteger("0x10000000000000000").has_value());
}

TEST(StringUtilsTest, IsIdentifier) {
  EXPECT_TRUE(isIdentifier("abc"));
  EXPECT_TRUE(isIdentifier("_a1"));
  EXPECT_TRUE(isIdentifier(".thread"));
  EXPECT_FALSE(isIdentifier("1abc"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a b"));
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 3, "z"), "x=3 y=z");
  EXPECT_EQ(formatString("plain"), "plain");
}

TEST(TableFormatterTest, AlignsColumns) {
  TableFormatter T({"Name", "N"});
  T.row().cell("a").cell(1);
  T.row().cell("bbbb").cell(22);
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Name  N"), std::string::npos);
  EXPECT_NE(Out.find("bbbb  22"), std::string::npos);
}

TEST(TableFormatterTest, CsvOutput) {
  TableFormatter T({"A", "B"});
  T.row().cell(1).cell(2.5, 1);
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "A,B\n1,2.5\n");
}

TEST(TableFormatterTest, PercentCell) {
  TableFormatter T({"P"});
  T.row().percentCell(0.183);
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "P\n+18.3%\n");
}
