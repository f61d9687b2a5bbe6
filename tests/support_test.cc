#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/support/math_util.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace alpa {
namespace {

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Strings, StrJoin) {
  std::vector<int> v = {1, 2, 3};
  EXPECT_EQ(StrJoin(v, ","), "1,2,3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
  EXPECT_EQ(StrJoin(std::vector<int>{7}, ","), "7");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.50 MB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(2.5), "2.500 s");
  EXPECT_EQ(HumanSeconds(0.0015), "1.500 ms");
  EXPECT_EQ(HumanSeconds(2e-6), "2.000 us");
}

TEST(Strings, ParseNonNegativeIntIsStrict) {
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("64"), 64);
  EXPECT_EQ(ParseNonNegativeInt("9223372036854775807"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseNonNegativeInt("2147483647", std::numeric_limits<int>::max()), 2147483647);
  // atoi/atoll would have read each of these as a number.
  for (const char* bad : {"", "sixty", "10k", "4x", " 4", "4 ", "+4", "-1", "1.5", "0x10",
                          "9223372036854775808"}) {
    EXPECT_FALSE(ParseNonNegativeInt(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseNonNegativeInt("2147483648", std::numeric_limits<int>::max()).has_value());
}

TEST(Strings, ParseNonNegativeDoubleIsStrict) {
  EXPECT_EQ(ParseNonNegativeDouble("0"), 0.0);
  EXPECT_EQ(ParseNonNegativeDouble("0.5"), 0.5);
  EXPECT_EQ(ParseNonNegativeDouble("2e-3"), 2e-3);
  EXPECT_EQ(ParseNonNegativeDouble("30"), 30.0);
  for (const char* bad : {"", "soon", "1s", "0.5.1", " 1", "+1", "-0.5", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseNonNegativeDouble(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 8), 1);
  EXPECT_EQ(CeilDiv(0, 8), 0);
}

TEST(MathUtil, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(-2));
  EXPECT_FALSE(IsPowerOfTwo(12));
}

TEST(MathUtil, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(64), 6);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DoubleRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BoundedRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

}  // namespace
}  // namespace alpa
