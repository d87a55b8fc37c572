// The CLIs' strict numeric flag parser: integers take decimal digits only
// and must fit the destination type; doubles must parse completely to a
// finite value.
#include "cli_flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace {

using jsoncdn::cli::parse_number;

TEST(CliFlags, IntegersTakeDigitsOnlyAndMustFitTheType) {
  std::uint64_t u64 = 0;
  EXPECT_TRUE(parse_number("0", u64));
  EXPECT_EQ(u64, 0u);
  EXPECT_TRUE(parse_number("18446744073709551615", u64));
  EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "abc", "1.5", "1e3",
                          "0x10", "nan", "18446744073709551616"}) {
    EXPECT_FALSE(parse_number(bad, u64)) << "'" << bad << "'";
  }

  std::uint32_t u32 = 0;
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(parse_number("4294967296", u32));
}

TEST(CliFlags, DoublesMustBeFiniteAndConsumeTheWholeString) {
  double d = 0.0;
  EXPECT_TRUE(parse_number("0.005", d));
  EXPECT_EQ(d, 0.005);
  EXPECT_TRUE(parse_number("-150", d));
  EXPECT_EQ(d, -150.0);
  EXPECT_TRUE(parse_number("1e3", d));
  EXPECT_EQ(d, 1000.0);
  for (const char* bad : {"", "nan", "inf", "-inf", "1e400", "1e30g", "abc",
                          " 1", "1 ", "0.5x"}) {
    EXPECT_FALSE(parse_number(bad, d)) << "'" << bad << "'";
  }
}

}  // namespace
