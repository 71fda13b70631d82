#include "spgemm/blocking.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace limsynth::spgemm {

std::vector<BlockTask> make_block_tasks(const SparseMatrix& a,
                                        const SparseMatrix& b,
                                        const BlockingConfig& config) {
  LIMS_CHECK(a.cols() == b.rows());
  LIMS_CHECK(config.row_block >= 1 && config.col_stripe >= 1);
  std::vector<BlockTask> tasks;
  int cs = 0;
  for (int c0 = 0; c0 < b.cols(); c0 += config.col_stripe, ++cs) {
    int rb = 0;
    for (int r0 = 0; r0 < a.rows(); r0 += config.row_block, ++rb) {
      BlockTask t;
      t.row_block_index = rb;
      t.col_stripe_index = cs;
      t.row_begin = r0;
      t.row_end = std::min(a.rows(), r0 + config.row_block);
      t.col_begin = c0;
      t.col_end = std::min(b.cols(), c0 + config.col_stripe);
      tasks.push_back(t);
    }
  }
  return tasks;
}

}  // namespace limsynth::spgemm
