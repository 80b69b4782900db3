// Tests for core::parse_number, the one text -> number conversion, and
// core::split_ws.
#include "mtsched/core/parse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "mtsched/core/rng.hpp"
#include "mtsched/core/table.hpp"

namespace {

using namespace mtsched;
using core::parse_number;

TEST(ParseNumber, AcceptsWholeTokensInRange) {
  EXPECT_EQ(parse_number<int>("0"), 0);
  EXPECT_EQ(parse_number<int>("-17"), -17);
  EXPECT_EQ(parse_number<int>("007"), 7);
  EXPECT_EQ(parse_number<int>("2147483647"),
            std::numeric_limits<int>::max());
  EXPECT_EQ(parse_number<int>("-2147483648"),
            std::numeric_limits<int>::min());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("-1e-3"), -1e-3);
  EXPECT_EQ(parse_number<double>("1.25e+08"), 1.25e8);
  EXPECT_EQ(parse_number<double>("1E5"), 1e5);
}

TEST(ParseNumber, RejectsEverythingElse) {
  for (const char* bad : {"", " 1", "1 ", "+1", "1x", "0x10", "1.0", "1e3",
                          "2147483648", "-2147483649", "--1", "-"}) {
    EXPECT_FALSE(parse_number<int>(bad)) << "int '" << bad << "'";
  }
  for (const char* bad : {"-1", "-0", "+5", "18446744073709551616", "1 2"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(bad)) << "u64 '" << bad << "'";
  }
  for (const char* bad : {"", " 1", "1 ", "+1", "1-2", "1.5.5", "3e", "e3",
                          "0x1p3", "1e400", "-1e400", "inf", "-inf", "nan",
                          "infinity", "1,5"}) {
    EXPECT_FALSE(parse_number<double>(bad)) << "double '" << bad << "'";
  }
}

// Every finite double the writers print comes back bit for bit: the
// to_chars text of core::fmt_roundtrip, and the ostream text of the
// platform (precision 17) and machine-table (precision 12) writers, which
// must also decode exactly as the strtod-based readers did.
TEST(ParseNumber, InvertsEveryWriterBitForBit) {
  core::Rng rng(20111);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(x)) continue;
    const auto back = parse_number<double>(core::fmt_roundtrip(x));
    ASSERT_TRUE(back) << core::fmt_roundtrip(x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(x));
    for (const int precision : {17, 12}) {
      std::ostringstream os;
      os.precision(precision);
      os << x;
      const auto parsed = parse_number<double>(os.str());
      ASSERT_TRUE(parsed) << os.str();
      const double via_strtod = std::strtod(os.str().c_str(), nullptr);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
                std::bit_cast<std::uint64_t>(via_strtod))
          << os.str();
      if (precision == 17) {
        EXPECT_EQ(*parsed, x) << os.str();
      }
    }
  }
  for (const int v : {0, 1, -1, 2000, std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()}) {
    EXPECT_EQ(parse_number<int>(std::to_string(v)), v);
  }
}

TEST(SplitWs, SplitsOnAnyWhitespaceRun) {
  const std::array<std::string_view, 3> want = {"a", "bc", "d"};
  const auto got = core::split_ws(" \ta  bc\r\vd\f ");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_TRUE(core::split_ws("").empty());
  EXPECT_TRUE(core::split_ws(" \t\r").empty());
}

}  // namespace
