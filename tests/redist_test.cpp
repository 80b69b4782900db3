// Tests for 1-D block layouts and redistribution planning, including the
// conservation property the paper's Section IV-2 relies on.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/units.hpp"
#include "mtsched/redist/layout.hpp"
#include "mtsched/redist/plan.hpp"

namespace {

using namespace mtsched::redist;
using mtsched::core::InvalidArgument;
using mtsched::core::Message;

TEST(BlockLayout, EvenDivision) {
  BlockLayout1D l(100, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(l.num_columns(r), 25);
  EXPECT_EQ(l.columns_of(0), std::make_pair(0, 25));
  EXPECT_EQ(l.columns_of(3), std::make_pair(75, 100));
}

TEST(BlockLayout, RemainderGoesToFirstRanks) {
  BlockLayout1D l(10, 3);  // 4, 3, 3
  EXPECT_EQ(l.num_columns(0), 4);
  EXPECT_EQ(l.num_columns(1), 3);
  EXPECT_EQ(l.num_columns(2), 3);
  EXPECT_EQ(l.columns_of(1), std::make_pair(4, 7));
}

TEST(BlockLayout, OwnerIsConsistentWithColumns) {
  BlockLayout1D l(2000, 7);
  for (int r = 0; r < 7; ++r) {
    const auto [b, e] = l.columns_of(r);
    for (int c = b; c < e; c += 37) EXPECT_EQ(l.owner(c), r);
    EXPECT_EQ(l.owner(e - 1), r);
  }
}

TEST(BlockLayout, BytesOfUsesElementSize) {
  BlockLayout1D l(100, 4);
  EXPECT_DOUBLE_EQ(l.bytes_of(0), 25.0 * 100.0 * 8.0);
}

TEST(BlockLayout, Validation) {
  EXPECT_THROW(BlockLayout1D(0, 1), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(10, 0), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(4, 8), InvalidArgument);  // p > n
  BlockLayout1D ok(10, 10);
  EXPECT_EQ(ok.num_columns(9), 1);
  EXPECT_THROW(ok.columns_of(10), InvalidArgument);
  EXPECT_THROW(ok.owner(10), InvalidArgument);
}

TEST(IntervalOverlap, Cases) {
  EXPECT_EQ(interval_overlap({0, 10}, {5, 15}), 5);
  EXPECT_EQ(interval_overlap({0, 10}, {10, 20}), 0);
  EXPECT_EQ(interval_overlap({0, 10}, {2, 4}), 2);
  EXPECT_EQ(interval_overlap({5, 6}, {0, 100}), 1);
  EXPECT_EQ(interval_overlap({0, 1}, {2, 3}), 0);
}

TEST(Plan, IdentityRedistributionIsDiagonal) {
  const auto plan = plan_block_redistribution(100, 4, 4);
  ASSERT_EQ(plan.num_messages(), 4);
  for (int i = 0; i < 4; ++i) {
    const Message& m = plan.messages[static_cast<std::size_t>(i)];
    EXPECT_EQ(m.src, i);
    EXPECT_EQ(m.dst, i);
    EXPECT_GT(m.bytes, 0.0);
  }
}

TEST(Plan, OneToMany) {
  const auto plan = plan_block_redistribution(100, 1, 4);
  ASSERT_EQ(plan.num_messages(), 4);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(plan.messages[static_cast<std::size_t>(j)].src, 0);
    EXPECT_EQ(plan.messages[static_cast<std::size_t>(j)].dst, j);
  }
  EXPECT_DOUBLE_EQ(plan.total_bytes(), mtsched::core::matrix_bytes(100));
}

TEST(Plan, ManyToOne) {
  const auto plan = plan_block_redistribution(100, 4, 1);
  ASSERT_EQ(plan.num_messages(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.messages[static_cast<std::size_t>(i)].src, i);
    EXPECT_EQ(plan.messages[static_cast<std::size_t>(i)].dst, 0);
  }
  EXPECT_DOUBLE_EQ(plan.total_bytes(), mtsched::core::matrix_bytes(100));
}

TEST(Plan, RowAndColumnTotalsMatchLayouts) {
  const int n = 2000, ps = 5, pd = 8;
  const auto plan = plan_block_redistribution(n, ps, pd);
  const BlockLayout1D src(n, ps), dst(n, pd);
  std::vector<double> out(ps, 0.0), in(pd, 0.0);
  for (const Message& m : plan.messages) {
    out[static_cast<std::size_t>(m.src)] += m.bytes;
    in[static_cast<std::size_t>(m.dst)] += m.bytes;
  }
  for (int i = 0; i < ps; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], src.bytes_of(i));
  }
  for (int j = 0; j < pd; ++j) {
    EXPECT_DOUBLE_EQ(in[static_cast<std::size_t>(j)], dst.bytes_of(j));
  }
}

/// Property sweep over (n, p_src, p_dst): every plan conserves the matrix
/// (total bytes equals the full n-by-n payload), each message count is
/// bounded by p_src + p_dst - 1 (contiguous interval overlap structure),
/// and the messages are exactly the non-zero overlaps of all (i, j) pairs
/// in row-major order.
class PlanConservation
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanConservation, ConservesAndBoundsMessages) {
  const auto [n, ps, pd] = GetParam();
  const auto plan = plan_block_redistribution(n, ps, pd);
  EXPECT_NEAR(plan.total_bytes(), mtsched::core::matrix_bytes(n), 1e-6);
  EXPECT_LE(plan.num_messages(), ps + pd - 1);
  EXPECT_GE(plan.num_messages(), std::max(ps, pd));

  const BlockLayout1D src(n, ps), dst(n, pd);
  std::vector<Message> probed;
  for (int i = 0; i < ps; ++i) {
    for (int j = 0; j < pd; ++j) {
      const int cols = interval_overlap(src.columns_of(i), dst.columns_of(j));
      if (cols > 0) {
        probed.push_back({i, j,
                          static_cast<double>(cols) *
                              (static_cast<double>(n) *
                               mtsched::core::kElemBytes)});
      }
    }
  }
  EXPECT_EQ(plan.messages, probed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanConservation,
    ::testing::Combine(::testing::Values(100, 2000, 3000),
                       ::testing::Values(1, 2, 5, 13, 32),
                       ::testing::Values(1, 3, 8, 32)));

}  // namespace
