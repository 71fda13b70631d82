#include "arch/cores.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace limsynth::arch {

namespace {

using spgemm::BlockTask;
using spgemm::Entry;
using spgemm::RowRange;
using spgemm::SparseMatrix;

// Nonzeros of A in each row block: the A-buffer fill a block's first task
// pays for.
std::vector<std::int64_t> block_nnz(const SparseMatrix& a, int row_block) {
  std::vector<std::int64_t> n(
      static_cast<std::size_t>((a.rows() + row_block - 1) / row_block));
  for (int k = 0; k < a.nnz(); ++k)
    ++n[static_cast<std::size_t>(a.row_index(k) / row_block)];
  return n;
}

// Builds C straight into CSC. The tasks of one column stripe append each
// column's entries in increasing row order (row blocks ascend within a
// stripe); flush() then moves the finished stripe behind the columns
// before it.
class CscWriter {
 public:
  CscWriter(int rows, int cols, int col_stripe)
      : rows_(rows),
        col_ptr_(static_cast<std::size_t>(cols) + 1, 0),
        stripe_(static_cast<std::size_t>(std::min(col_stripe, cols))) {}

  void add(int col_offset, int row, double value) {
    stripe_[static_cast<std::size_t>(col_offset)].push_back({row, value});
  }

  void flush(int col_begin, int col_end) {
    for (int c = col_begin; c < col_end; ++c) {
      std::vector<Entry>& col = stripe_[static_cast<std::size_t>(c - col_begin)];
      col_ptr_[static_cast<std::size_t>(c)] = static_cast<int>(row_idx_.size());
      for (const Entry& e : col) {
        row_idx_.push_back(e.row);
        values_.push_back(e.value);
      }
      col.clear();
    }
    col_ptr_[static_cast<std::size_t>(col_end)] =
        static_cast<int>(row_idx_.size());
  }

  SparseMatrix finish() {
    const int cols = static_cast<int>(col_ptr_.size()) - 1;
    // The product outlives the call: drop the push_back growth slack.
    row_idx_.shrink_to_fit();
    values_.shrink_to_fit();
    return SparseMatrix::from_csc(rows_, cols, std::move(col_ptr_),
                                  std::move(row_idx_), std::move(values_));
  }

 private:
  int rows_;
  std::vector<int> col_ptr_;
  std::vector<int> row_idx_;
  std::vector<double> values_;
  std::vector<std::vector<Entry>> stripe_;  // current stripe, per column
};

// Tasks are stripe-major, so a row block's first task is on stripe 0. The
// cycle accounting is a sum over tasks and does not depend on that order.
std::int64_t task_load_cycles(const CoreConfig& cfg, const BlockTask& task,
                              std::int64_t nnz_b_stripe,
                              const std::vector<std::int64_t>& nnz_a_blocks) {
  // The A block is loaded once per row block and reused across all
  // column stripes.
  const bool new_block = task.col_stripe_index == 0;
  return dram_stream_cycles(cfg.dram, nnz_b_stripe) +
         (new_block
              ? dram_stream_cycles(
                    cfg.dram,
                    nnz_a_blocks[static_cast<std::size_t>(task.row_block_index)])
              : 0);
}

// Number of keys in a descending vector that are greater than key: its
// insertion index. A branch-free binary search; the merge heads are
// random, so a branching one mispredicts about every other step.
std::size_t count_greater(const std::vector<std::uint64_t>& keys,
                          std::uint64_t key) {
  if (keys.empty()) return 0;
  const std::uint64_t* base = keys.data();
  for (std::size_t len = keys.size(); len > 1;) {
    const std::size_t half = len / 2;
    base = base[half] > key ? base + half : base;
    len -= half;
  }
  return static_cast<std::size_t>(base - keys.data()) + (*base > key ? 1 : 0);
}

}  // namespace

SparseMatrix lim_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                        const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  CoreStats st;
  const auto tasks = spgemm::make_block_tasks(a, b, cfg.blocking);
  const auto nnz_a_blocks = block_nnz(a, cfg.blocking.row_block);
  CscWriter out(a.rows(), b.cols(), cfg.blocking.col_stripe);

  // The horizontal CAMs of one task as dense scratch: slot
  // (row - row_begin) * width + column offset holds the accumulated value
  // and the CAM epoch the row was inserted in (-1: not yet this task).
  struct Slot {
    double value = 0.0;
    int epoch = -1;
  };
  const int width = std::min(cfg.blocking.col_stripe, b.cols());
  const int height = std::min(cfg.blocking.row_block, a.rows());
  std::vector<Slot> cam(static_cast<std::size_t>(width) *
                        static_cast<std::size_t>(height));
  struct ColState {
    int epoch = 0;
    int occupancy = 0;
    std::int64_t spilled = 0;
    std::vector<int> rows;  // block rows with a slot this task
  };
  std::vector<ColState> cols(static_cast<std::size_t>(width));

  // B entries of the current stripe, stable-sorted by row k so each
  // (column, row) accumulates in increasing k as the chip streams B.
  struct BEntry {
    int k;
    int col;  // offset in the stripe
    double value;
  };
  std::vector<BEntry> by_k;
  // Where each k's A column continues in the next row block, kept at the
  // k's first index in by_k.
  std::vector<int> next;

  for (const BlockTask& task : tasks) {
    if (task.row_block_index == 0) {
      by_k.clear();
      for (int j = task.col_begin; j < task.col_end; ++j)
        for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb)
          by_k.push_back({b.row_index(kb), j - task.col_begin, b.value(kb)});
      std::stable_sort(by_k.begin(), by_k.end(),
                       [](const BEntry& x, const BEntry& y) { return x.k < y.k; });
      next.resize(by_k.size());
    }
    const int n_cols = task.col_end - task.col_begin;
    std::int64_t compute = 0;

    for (std::size_t g = 0; g < by_k.size();) {
      const int k = by_k[g].k;
      std::size_t g_end = g + 1;
      while (g_end < by_k.size() && by_k[g_end].k == k) ++g_end;
      const auto targets = static_cast<std::int64_t>(g_end - g);
      int& from = next[g];
      if (task.row_block_index == 0) from = a.col_begin(k);
      const RowRange a_col = spgemm::row_range(a, k, from, task.row_end);
      from = a_col.end;
      if (!a_col.empty()) {
        compute += 1;  // load the B-row values into the column multipliers
        for (int ka = a_col.begin; ka < a_col.end; ++ka) {
          // One broadcast cycle: every active column matches in parallel.
          compute += 1;
          ++st.broadcasts;
          st.searches += targets;
          st.multiplies += targets;
          const int row = a.row_index(ka) - task.row_begin;
          const double av = a.value(ka);
          Slot* line = &cam[static_cast<std::size_t>(row) *
                            static_cast<std::size_t>(width)];
          for (std::size_t t = g; t < g_end; ++t) {
            const BEntry& be = by_k[t];
            ColState& col = cols[static_cast<std::size_t>(be.col)];
            Slot& slot = line[be.col];
            if (slot.epoch != col.epoch) {  // CAM miss
              if (slot.epoch < 0) {
                slot.value = 0.0;
                col.rows.push_back(row);
              }
              if (col.occupancy == cfg.cam_entries) {
                // Overflow: the CAM contents drain into the spill FIFO in
                // the background (double-buffered), costing a merge pass
                // at drain rather than a stall here.
                ++st.spills;
                st.spilled_entries += col.occupancy;
                col.spilled += col.occupancy;
                col.occupancy = 0;
                ++col.epoch;
              }
              ++st.inserts;
              slot.epoch = col.epoch;
              ++col.occupancy;
            }
            slot.value += av * be.value;
          }
        }
      }
      g = g_end;
    }

    // Drain: assemble columns into C through the vertical CAM; spilled
    // segments take an extra merge pass. Partially hidden behind the next
    // stripe (double-buffered).
    std::int64_t drain = 0;
    for (int cj = 0; cj < n_cols; ++cj) {
      ColState& col = cols[static_cast<std::size_t>(cj)];
      if (col.rows.empty()) continue;
      drain += 2;  // vertical CAM column-index match + setup
      drain += static_cast<std::int64_t>(col.rows.size());  // read out
      drain += 2 * col.spilled;  // re-stream spilled segments through CAM
      std::sort(col.rows.begin(), col.rows.end());
      for (const int row : col.rows) {
        Slot& slot = cam[static_cast<std::size_t>(row) *
                             static_cast<std::size_t>(width) +
                         static_cast<std::size_t>(cj)];
        out.add(cj, row + task.row_begin, slot.value);
        slot.epoch = -1;
      }
      st.output_entries += static_cast<std::int64_t>(col.rows.size());
      col.rows.clear();
      col.epoch = 0;
      col.occupancy = 0;
      col.spilled = 0;
    }
    drain = static_cast<std::int64_t>(
        static_cast<double>(drain) * (1.0 - cfg.drain_overlap));

    // On-chip buffer fill from the 3D DRAM stack, double-buffered against
    // compute.
    const std::int64_t load = task_load_cycles(
        cfg, task, static_cast<std::int64_t>(by_k.size()), nnz_a_blocks);
    st.load_cycles += load;
    st.cycles += std::max(compute, load) + drain;
    ++st.block_tasks;
    if (task.row_end == a.rows()) out.flush(task.col_begin, task.col_end);
  }

  if (stats != nullptr) *stats = st;
  return out.finish();
}

SparseMatrix heap_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                         const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  CoreStats st;
  const auto tasks = spgemm::make_block_tasks(a, b, cfg.blocking);
  const auto nnz_a_blocks = block_nnz(a, cfg.blocking.row_block);
  CscWriter out(a.rows(), b.cols(), cfg.blocking.col_stripe);

  // The lists to merge for one column: one per nonzero B(k, j), each a
  // range of A(:, k) in the row block, scaled by B(k, j).
  struct List {
    int pos;
    int end;
    double scale;
  };
  std::vector<List> lists;
  // Sorted head FIFO of packed (row << 32 | list) keys in descending
  // order, so the smallest head is popped from the back.
  std::vector<std::uint64_t> heads;
  // Where each B entry's A column continues in the next row block.
  std::vector<int> next;

  for (const BlockTask& task : tasks) {
    std::int64_t compute = 0;
    // Inserting a head costs one shift (read+write pair) per head ordered
    // after it: the keys in front of its insertion index.
    const auto insert_head = [&](int row, std::size_t l) {
      const std::uint64_t key = (static_cast<std::uint64_t>(row) << 32) | l;
      const std::size_t at = count_greater(heads, key);
      const auto displaced = static_cast<std::int64_t>(at);
      st.shift_cycles += 2 * displaced;
      compute += 2 * displaced + 1;
      heads.insert(heads.begin() + static_cast<std::ptrdiff_t>(at), key);
    };

    const int b_begin = b.col_begin(task.col_begin);
    next.resize(static_cast<std::size_t>(b.col_begin(task.col_end) - b_begin));
    for (int j = task.col_begin; j < task.col_end; ++j) {
      lists.clear();
      for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
        const int k = b.row_index(kb);
        int& from = next[static_cast<std::size_t>(kb - b_begin)];
        if (task.row_block_index == 0) from = a.col_begin(k);
        const RowRange a_col = spgemm::row_range(a, k, from, task.row_end);
        from = a_col.end;
        if (a_col.empty()) continue;
        lists.push_back({a_col.begin, a_col.end, b.value(kb)});
        st.fifo_loads += a_col.size();
        compute += a_col.size();  // fill FIFO
      }
      if (lists.empty()) continue;

      heads.clear();
      for (std::size_t l = 0; l < lists.size(); ++l)
        insert_head(a.row_index(lists[l].pos), l);

      // Merge.
      int last_row = -1;
      double acc = 0.0;
      const auto emit = [&]() {
        if (last_row >= 0) {
          out.add(j - task.col_begin, last_row, acc);
          ++st.output_entries;
        }
      };
      while (!heads.empty()) {
        const std::uint64_t key = heads.back();
        heads.pop_back();
        const int row = static_cast<int>(key >> 32);
        const std::size_t l = key & 0xffffffffu;
        ++st.pops;
        ++st.multiplies;
        compute += 2;  // FIFO read + pointer update, fused multiply-accum.
        List& list = lists[l];
        const double product = a.value(list.pos) * list.scale;
        if (row == last_row) {
          acc += product;
        } else {
          emit();
          if (last_row >= 0) compute += 1;  // result write to output SRAM
          last_row = row;
          acc = product;
        }
        // Advance the list; re-insert its new head with FIFO shifting.
        if (++list.pos < list.end) insert_head(a.row_index(list.pos), l);
      }
      emit();
      // Re-arrange (reset) the FIFO bank for the next column.
      compute += static_cast<std::int64_t>(lists.size());
    }

    const std::int64_t load = task_load_cycles(
        cfg, task, static_cast<std::int64_t>(next.size()), nnz_a_blocks);
    st.load_cycles += load;
    st.cycles += std::max(compute, load);
    ++st.block_tasks;
    if (task.row_end == a.rows()) out.flush(task.col_begin, task.col_end);
  }

  if (stats != nullptr) *stats = st;
  return out.finish();
}

}  // namespace limsynth::arch
