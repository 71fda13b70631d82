#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "spgemm/blocking.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "spgemm/sparse.hpp"
#include "util/rng.hpp"

namespace limsynth::spgemm {
namespace {

SparseMatrix small_fixed() {
  // [1 0 2]   col-major triplets.
  // [0 3 0]
  // [4 0 5]
  return SparseMatrix::from_triplets(3, 3,
                                     {{0, 0, 1.0},
                                      {2, 0, 4.0},
                                      {1, 1, 3.0},
                                      {0, 2, 2.0},
                                      {2, 2, 5.0}});
}

TEST(Sparse, TripletsSortedAndSummed) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      4, 2, {{3, 0, 1.0}, {1, 0, 2.0}, {1, 0, 0.5}, {0, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_nnz(0), 2);
  const auto col0 = m.column(0);
  EXPECT_EQ(col0[0].row, 1);
  EXPECT_DOUBLE_EQ(col0[0].value, 2.5);  // duplicates summed
  EXPECT_EQ(col0[1].row, 3);
}

TEST(Sparse, BoundsChecked) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Sparse, StatsAndEquality) {
  const SparseMatrix m = small_fixed();
  EXPECT_EQ(m.nnz(), 5);
  EXPECT_NEAR(m.density(), 5.0 / 9.0, 1e-12);
  EXPECT_EQ(m.max_col_nnz(), 2);
  EXPECT_TRUE(m.approx_equal(small_fixed()));
  SparseMatrix other = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {2, 0, 4.0}, {1, 1, 3.0}, {0, 2, 2.0}, {2, 2, 5.0001}});
  EXPECT_FALSE(m.approx_equal(other, 1e-9));
  EXPECT_TRUE(m.approx_equal(other, 1e-3));
}

TEST(Sparse, NanNeverApproxEqual) {
  const SparseMatrix m = small_fixed();
  SparseMatrix nan = SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 1.0},
       {2, 0, 4.0},
       {1, 1, std::numeric_limits<double>::quiet_NaN()},
       {0, 2, 2.0},
       {2, 2, 5.0}});
  EXPECT_FALSE(nan.approx_equal(m, 1e-9));
  EXPECT_FALSE(m.approx_equal(nan, 1e-9));
  EXPECT_FALSE(nan.approx_equal(nan, 1e-9));
}

TEST(Sparse, CscFactoryMatchesTriplets) {
  // Same entries through both factories, including a -0.0 that
  // from_triplets stores as +0.0.
  const SparseMatrix csc = SparseMatrix::from_csc(
      4, 3, {0, 2, 2, 4}, {1, 3, 0, 2}, {2.0, -0.0, 1.5, -4.0});
  const SparseMatrix trip = SparseMatrix::from_triplets(
      4, 3, {{3, 0, -0.0}, {1, 0, 2.0}, {2, 2, -4.0}, {0, 2, 1.5}});
  ASSERT_EQ(csc.nnz(), trip.nnz());
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(csc.col_begin(c), trip.col_begin(c));
    for (int k = csc.col_begin(c); k < csc.col_end(c); ++k) {
      EXPECT_EQ(csc.row_index(k), trip.row_index(k));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(csc.value(k)),
                std::bit_cast<std::uint64_t>(trip.value(k)));
    }
  }
  EXPECT_FALSE(std::signbit(csc.value(1)));
  EXPECT_EQ(SparseMatrix::from_csc(2, 0, {0}, {}, {}).nnz(), 0);
}

TEST(Sparse, CscFactoryRejectsMalformedArrays) {
  const auto make = [](std::vector<int> ptr, std::vector<int> rows) {
    const std::vector<double> vals(rows.size(), 1.0);
    return SparseMatrix::from_csc(3, 2, std::move(ptr), std::move(rows), vals);
  };
  EXPECT_NO_THROW(make({0, 2, 3}, {0, 2, 1}));
  EXPECT_THROW(make({0, 2}, {0, 2}), Error);            // short col_ptr
  EXPECT_THROW(make({1, 2, 3}, {0, 2, 1}), Error);      // not from 0
  EXPECT_THROW(make({0, 2, 2}, {0, 2, 1}), Error);      // not to nnz
  EXPECT_THROW(make({0, 4, 3}, {0, 1, 2}), Error);      // decreasing
  EXPECT_THROW(make({0, 2, 3}, {2, 0, 1}), Error);      // unsorted rows
  EXPECT_THROW(make({0, 2, 3}, {1, 1, 0}), Error);      // duplicate row
  EXPECT_THROW(make({0, 2, 3}, {0, 3, 1}), Error);      // row out of range
  EXPECT_THROW(SparseMatrix::from_csc(3, 1, {0, 1}, {0}, {}), Error);
}

TEST(Reference, HandComputedProduct) {
  const SparseMatrix a = small_fixed();
  const SparseMatrix c = multiply_reference(a, a);
  // a^2 computed by hand:
  // [1 0 2][1 0 2]   [1+8  0  2+10 ]   [9  0 12]
  // [0 3 0][0 3 0] = [0    9  0    ] = [0  9  0]
  // [4 0 5][4 0 5]   [4+20 0  8+25 ]   [24 0 33]
  const SparseMatrix want = SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 9.0}, {2, 0, 24.0}, {1, 1, 9.0}, {0, 2, 12.0}, {2, 2, 33.0}});
  EXPECT_TRUE(c.approx_equal(want));
}

TEST(Reference, IdentityIsNeutral) {
  Rng rng(1);
  const SparseMatrix a = gen_erdos_renyi(64, 300, rng);
  std::vector<std::tuple<int, int, double>> eye;
  for (int i = 0; i < 64; ++i) eye.emplace_back(i, i, 1.0);
  const SparseMatrix id = SparseMatrix::from_triplets(64, 64, std::move(eye));
  EXPECT_TRUE(multiply_reference(a, id).approx_equal(a));
  EXPECT_TRUE(multiply_reference(id, a).approx_equal(a));
}

TEST(Reference, FlopsCountMatchesDefinition) {
  const SparseMatrix a = small_fixed();
  // For each nonzero a(k,j): |a(:,k)| -> cols 0,1,2 sizes 2,1,2.
  // Nonzeros: (0,0)->|col0|=2, (2,0)->|col2|=2, (1,1)->|col1|=1,
  // (0,2)->2, (2,2)->2 => total 9.
  EXPECT_EQ(a.flops_with(a), 9);
}

TEST(Generators, ShapesAndDeterminism) {
  Rng r1(5), r2(5);
  const SparseMatrix a = gen_erdos_renyi(256, 1000, r1);
  const SparseMatrix b = gen_erdos_renyi(256, 1000, r2);
  EXPECT_TRUE(a.approx_equal(b));  // same seed, same matrix
  EXPECT_EQ(a.rows(), 256);
  EXPECT_LE(a.nnz(), 1000);  // duplicates merge
  EXPECT_GT(a.nnz(), 900);
}

TEST(Generators, RmatIsSkewed) {
  Rng rng(6);
  const SparseMatrix m = gen_rmat(10, 8192, 0.6, 0.15, 0.15, rng);
  EXPECT_EQ(m.rows(), 1024);
  // Power-law: the max column far exceeds the average.
  EXPECT_GT(m.max_col_nnz(), 4.0 * m.avg_col_nnz());
}

TEST(Generators, BandedStaysInBand) {
  Rng rng(7);
  const int band = 5;
  const SparseMatrix m = gen_banded(128, band, 4, rng);
  for (int c = 0; c < m.cols(); ++c)
    for (int k = m.col_begin(c); k < m.col_end(c); ++k)
      EXPECT_LE(std::abs(m.row_index(k) - c), band);
}

TEST(Generators, ContractionConfinesRows) {
  Rng rng(8);
  const int group = 64, supers = 8;
  const SparseMatrix m = gen_contraction(256, group, supers, 12, rng);
  for (int c = 0; c < m.cols(); ++c) {
    const int base = (c / group) * group;
    std::set<int> rows;
    for (int k = m.col_begin(c); k < m.col_end(c); ++k) {
      EXPECT_GE(m.row_index(k), base);
      EXPECT_LT(m.row_index(k), base + group);
      rows.insert(m.row_index(k));
    }
    EXPECT_LE(static_cast<int>(rows.size()), supers);
  }
}

TEST(Generators, SuiteIsWellFormed) {
  const auto suite = uf_analog_suite();
  EXPECT_GE(suite.size(), 8u);
  for (const auto& b : suite) {
    EXPECT_FALSE(b.name.empty());
    EXPECT_GT(b.matrix.nnz(), 0);
    EXPECT_EQ(b.matrix.rows(), b.matrix.cols());
  }
}

TEST(Blocking, TasksTileTheProduct) {
  Rng rng(9);
  const SparseMatrix a = gen_erdos_renyi(300, 900, rng);
  BlockingConfig cfg;
  cfg.row_block = 128;
  cfg.col_stripe = 32;
  const auto tasks = make_block_tasks(a, a, cfg);
  // ceil(300/128)=3 row blocks, ceil(300/32)=10 stripes.
  EXPECT_EQ(tasks.size(), 30u);
  EXPECT_EQ(tasks.front().row_begin, 0);
  EXPECT_EQ(tasks.back().row_end, 300);
  EXPECT_EQ(tasks.back().col_end, 300);
}

TEST(Blocking, TasksAreStripeMajor) {
  Rng rng(9);
  const SparseMatrix a = gen_erdos_renyi(300, 900, rng);
  BlockingConfig cfg;
  cfg.row_block = 128;
  cfg.col_stripe = 32;
  const auto tasks = make_block_tasks(a, a, cfg);
  // Every row block of a stripe, in order, before the next stripe.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].col_stripe_index, static_cast<int>(i / 3));
    EXPECT_EQ(tasks[i].row_block_index, static_cast<int>(i % 3));
    EXPECT_EQ(tasks[i].row_begin, 128 * tasks[i].row_block_index);
    EXPECT_EQ(tasks[i].col_begin, 32 * tasks[i].col_stripe_index);
  }
}

TEST(Blocking, RowRangesRebaseAndPartition) {
  Rng rng(10);
  const SparseMatrix a = gen_erdos_renyi(200, 800, rng);
  std::int64_t total = 0;
  for (int c = 0; c < a.cols(); ++c) {
    const RowRange lo = row_range(a, c, a.col_begin(c), 100);
    const RowRange hi = row_range(a, c, lo.end, 200);
    EXPECT_EQ(lo.begin, a.col_begin(c));
    EXPECT_EQ(hi.begin, lo.end);  // adjacent blocks split the column
    EXPECT_EQ(hi.end, a.col_end(c));
    total += lo.size() + hi.size();
    for (int k = lo.begin; k < lo.end; ++k) {
      EXPECT_GE(a.row_index(k), 0);
      EXPECT_LT(a.row_index(k), 100);
    }
    for (int k = hi.begin; k < hi.end; ++k) {
      EXPECT_GE(a.row_index(k) - 100, 0);
      EXPECT_LT(a.row_index(k) - 100, 100);  // rebased
    }
    EXPECT_TRUE(row_range(a, c, hi.end, 300).empty());
  }
  EXPECT_EQ(total, a.nnz());
}

}  // namespace
}  // namespace limsynth::spgemm
