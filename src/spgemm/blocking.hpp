// Sub-block decomposition (Zhu et al. [12], used by the paper's chips):
// row indices are 10 bits, so A is split into 1024-row blocks, and B is
// processed in stripes of N=32 columns; each (row block, column stripe)
// task produces a 1024 x 32 tile of C. Access patterns become predictable,
// which is what lets the 3D-stacked DRAM stream blocks at full row-buffer
// bandwidth.
#pragma once

#include <vector>

#include "spgemm/sparse.hpp"

namespace limsynth::spgemm {

struct BlockingConfig {
  int row_block = 1024;  // rows of A per block (10-bit CAM index)
  int col_stripe = 32;   // columns of B per stripe (horizontal CAM count)
};

struct BlockTask {
  int row_block_index = 0;  // which 1024-row slice of A / C
  int col_stripe_index = 0; // which 32-column slice of B / C
  int row_begin = 0, row_end = 0;
  int col_begin = 0, col_end = 0;
};

/// Enumerates all (row block x column stripe) tasks for C = A * B,
/// stripe-major: every row block of one column stripe, then the next
/// stripe, so each stripe of C is complete before the next one starts.
std::vector<BlockTask> make_block_tasks(const SparseMatrix& a,
                                        const SparseMatrix& b,
                                        const BlockingConfig& config);

/// Zero-copy row-block view of one CSC column: positions [begin, end) of
/// A's arrays (a.row_index(k), a.value(k)). A row's index inside its block
/// is a.row_index(k) - row_begin.
struct RowRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// The entries of A(:, col) from position `from` up to the first row at or
/// past row_end. Walking the row blocks in increasing order, `from` is
/// a.col_begin(col) for the first block and the previous range's end after
/// that. The scan stops one entry past the range, so its cost is bounded
/// by the entries the block then streams.
inline RowRange row_range(const SparseMatrix& a, int col, int from,
                          int row_end) {
  RowRange r{from, from};
  const int last = a.col_end(col);
  while (r.end < last && a.row_index(r.end) < row_end) ++r.end;
  return r;
}

}  // namespace limsynth::spgemm
