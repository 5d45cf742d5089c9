// The CLIs' flag parsing (util/parse_flag.h): a numeric value parses only
// when the whole of it is one number that fits its type.
#include "util/parse_flag.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace odbgc {
namespace {

TEST(ParseNumberTest, AcceptsWholeNumbersOfEachType) {
  uint32_t u32 = 0;
  EXPECT_TRUE(ParseNumber("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u64));
  EXPECT_EQ(u64, UINT64_MAX);
  int i = 0;
  EXPECT_TRUE(ParseNumber("-7", &i));
  EXPECT_EQ(i, -7);
  double d = 0;
  EXPECT_TRUE(ParseNumber("-1e-3", &d));
  EXPECT_EQ(d, -1e-3);
}

TEST(ParseNumberTest, RejectsPartialOverflowingAndSignedValues) {
  uint32_t trigger = 150;
  for (const char* bad : {"2OO", "abc", "", " 5", "5 ", "0x10", "1e3", "1.5",
                          "4294967296", "-1", "-0", "+1"}) {
    EXPECT_FALSE(ParseNumber(bad, &trigger)) << '"' << bad << '"';
  }
  EXPECT_EQ(trigger, 150u);  // Untouched by every rejection.
  int seeds = 3;
  for (const char* bad : {"2147483648", "-2147483649", "+1", "3x"}) {
    EXPECT_FALSE(ParseNumber(bad, &seeds)) << '"' << bad << '"';
  }
  double overcommit = 0.75;
  for (const char* bad : {"abc", "1.5x", ".", "0,5", "+0.5", "1e400", "inf",
                          "nan"}) {
    EXPECT_FALSE(ParseNumber(bad, &overcommit)) << '"' << bad << '"';
  }
  EXPECT_EQ(overcommit, 0.75);
}

TEST(ParseNumberTest, NumberFlagMatchesItsNameAndReportsBadValues) {
  uint32_t trigger = 0;
  bool ok = true;
  EXPECT_FALSE(ParseNumberFlag("--triggers=5", "--trigger", &trigger, &ok));
  EXPECT_FALSE(ParseNumberFlag("--trigger", "--trigger", &trigger, &ok));
  EXPECT_TRUE(ParseNumberFlag("--trigger=300", "--trigger", &trigger, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(trigger, 300u);
  EXPECT_TRUE(ParseNumberFlag("--trigger=2OO", "--trigger", &trigger, &ok));
  EXPECT_FALSE(ok);
  EXPECT_EQ(trigger, 300u);
}

}  // namespace
}  // namespace odbgc
