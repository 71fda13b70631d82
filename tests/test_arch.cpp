// Tests for the accelerator core simulators and chip models.
#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "arch/chip.hpp"
#include "arch/cores.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/rng.hpp"

namespace limsynth::arch {
namespace {

spgemm::SparseMatrix random_matrix(int n, int nnz, std::uint64_t seed) {
  Rng rng(seed);
  return spgemm::gen_erdos_renyi(n, nnz, rng);
}

class CoreCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(CoreCorrectness, BothCoresMatchReference) {
  const auto [n, nnz, seed] = GetParam();
  const spgemm::SparseMatrix a = random_matrix(n, nnz, seed);
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, a);
  CoreConfig cfg;
  CoreStats lim_stats, heap_stats;
  const spgemm::SparseMatrix c_lim = lim_spgemm(a, a, cfg, &lim_stats);
  const spgemm::SparseMatrix c_heap = heap_spgemm(a, a, cfg, &heap_stats);
  EXPECT_TRUE(c_lim.approx_equal(golden, 1e-9));
  EXPECT_TRUE(c_heap.approx_equal(golden, 1e-9));
  EXPECT_GT(lim_stats.cycles, 0);
  EXPECT_GT(heap_stats.cycles, 0);
  EXPECT_EQ(lim_stats.multiplies, a.flops_with(a));
  EXPECT_EQ(heap_stats.multiplies, a.flops_with(a));
  EXPECT_EQ(lim_stats.output_entries, golden.nnz());
  EXPECT_EQ(heap_stats.output_entries, golden.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoreCorrectness,
    ::testing::Values(std::tuple{64, 300, 1ull}, std::tuple{200, 1200, 2ull},
                      std::tuple{1500, 6000, 3ull},  // spans row blocks
                      std::tuple{100, 2500, 4ull},   // dense-ish
                      std::tuple{40, 40, 5ull}));    // near-diagonal

TEST(Cores, CrossBlockMatrixStillExact) {
  // Matrices larger than the 1024-row block and 32-column stripe.
  Rng rng(11);
  const spgemm::SparseMatrix a = spgemm::gen_rmat(11, 12000, 0.5, 0.2, 0.2, rng);
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, a);
  CoreConfig cfg;
  EXPECT_TRUE(lim_spgemm(a, a, cfg, nullptr).approx_equal(golden, 1e-9));
  EXPECT_TRUE(heap_spgemm(a, a, cfg, nullptr).approx_equal(golden, 1e-9));
}

TEST(Cores, CamOverflowSpillsButStaysCorrect) {
  // Columns with far more distinct rows than CAM entries.
  const spgemm::SparseMatrix a = random_matrix(100, 2500, 6);
  CoreConfig cfg;
  cfg.cam_entries = 4;  // force heavy spilling
  CoreStats stats;
  const auto c = lim_spgemm(a, a, cfg, &stats);
  EXPECT_GT(stats.spills, 0);
  EXPECT_GT(stats.spilled_entries, 0);
  EXPECT_TRUE(c.approx_equal(spgemm::multiply_reference(a, a), 1e-9));
}

TEST(Cores, BiggerCamSpillsLess) {
  const spgemm::SparseMatrix a = random_matrix(200, 4000, 7);
  CoreConfig small, big;
  small.cam_entries = 8;
  big.cam_entries = 64;
  CoreStats s_small, s_big;
  (void)lim_spgemm(a, a, small, &s_small);
  (void)lim_spgemm(a, a, big, &s_big);
  EXPECT_GT(s_small.spilled_entries, s_big.spilled_entries);
  EXPECT_GE(s_small.cycles, s_big.cycles);
}

TEST(Cores, HeapShiftsGrowWithMergeWidth) {
  // Wider columns (more lists) => more FIFO shifting per element.
  const spgemm::SparseMatrix narrow = random_matrix(512, 1024, 8);
  const spgemm::SparseMatrix wide = random_matrix(512, 8192, 8);
  CoreConfig cfg;
  CoreStats sn, sw;
  (void)heap_spgemm(narrow, narrow, cfg, &sn);
  (void)heap_spgemm(wide, wide, cfg, &sw);
  const double per_pop_n =
      static_cast<double>(sn.shift_cycles) / static_cast<double>(sn.pops);
  const double per_pop_w =
      static_cast<double>(sw.shift_cycles) / static_cast<double>(sw.pops);
  EXPECT_GT(per_pop_w, per_pop_n);
}

TEST(Cores, LimParallelismBeatsHeapOnWideColumns) {
  Rng rng(12);
  const spgemm::SparseMatrix a = spgemm::gen_contraction(512, 128, 12, 24, rng);
  CoreConfig cfg;
  CoreStats lim_stats, heap_stats;
  (void)lim_spgemm(a, a, cfg, &lim_stats);
  (void)heap_spgemm(a, a, cfg, &heap_stats);
  EXPECT_GT(heap_stats.cycles, 5 * lim_stats.cycles);
  EXPECT_GT(lim_stats.avg_active_columns(), 2.0);
}

// Exact counters and product bits on fixed inputs. Every CoreStats field
// and every product bit is a simulated result (Fig. 6 and the SpGEMM
// ablation are built from them), so a change to any of them must be
// deliberate and re-record the expected values below.
std::uint64_t product_digest(const spgemm::SparseMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(m.rows()));
  mix(static_cast<std::uint64_t>(m.cols()));
  for (int c = 0; c < m.cols(); ++c) {
    mix(static_cast<std::uint64_t>(m.col_begin(c)));
    for (int k = m.col_begin(c); k < m.col_end(c); ++k) {
      mix(static_cast<std::uint64_t>(m.row_index(k)));
      mix(std::bit_cast<std::uint64_t>(m.value(k)));
    }
  }
  return h;
}

std::vector<std::int64_t> stat_fields(const CoreStats& s) {
  return {s.cycles,     s.broadcasts,   s.searches,        s.inserts,
          s.spills,     s.spilled_entries, s.pops,        s.shift_cycles,
          s.fifo_loads, s.multiplies,   s.output_entries,  s.block_tasks,
          s.load_cycles};
}

spgemm::SparseMatrix random_rect(int rows, int cols, int nnz,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<int, int, double>> trips;
  for (int e = 0; e < nnz; ++e)
    trips.emplace_back(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(rows))),
        static_cast<int>(rng.below(static_cast<std::uint64_t>(cols))),
        rng.uniform(-1.0, 1.0));
  return spgemm::SparseMatrix::from_triplets(rows, cols, std::move(trips));
}

struct PinnedRun {
  std::vector<std::int64_t> stats;  // stat_fields order
  std::uint64_t digest;
};

struct PinnedCase {
  const char* name;
  PinnedRun lim;
  PinnedRun heap;
};

// Keeps the test names (which gtest_discover_tests builds from the
// printed parameter) free of the cases' pointer bytes.
void PrintTo(const PinnedCase& pin, std::ostream* os) { *os << pin.name; }

std::pair<spgemm::SparseMatrix, spgemm::SparseMatrix> pinned_inputs(
    const std::string& name) {
  if (name == "rect")  // b.cols() != a.rows(), partial stripe and block
    return {random_rect(300, 200, 2400, 31), random_rect(200, 450, 3000, 32)};
  Rng rng(30);
  spgemm::SparseMatrix a;
  if (name == "rmat") a = spgemm::gen_rmat(9, 8 * 512, 0.55, 0.18, 0.18, rng);
  if (name == "band") a = spgemm::gen_banded(1500, 12, 4, rng);
  if (name == "contract") a = spgemm::gen_contraction(1024, 128, 16, 24, rng);
  return {a, a};
}

class PinnedCounters : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(PinnedCounters, BothCoresReproduceRecordedRun) {
  const PinnedCase& pin = GetParam();
  const auto [a, b] = pinned_inputs(pin.name);
  ASSERT_GT(a.nnz(), 0);
  CoreConfig cfg;
  cfg.blocking.row_block = 128;  // several blocks; band and rect end partial
  cfg.blocking.col_stripe = 64;
  cfg.cam_entries = 4;           // heavy spilling
  CoreStats lim_stats, heap_stats;
  const spgemm::SparseMatrix c_lim = lim_spgemm(a, b, cfg, &lim_stats);
  const spgemm::SparseMatrix c_heap = heap_spgemm(a, b, cfg, &heap_stats);
  const spgemm::SparseMatrix golden = spgemm::multiply_reference(a, b);
  EXPECT_TRUE(c_lim.approx_equal(golden, 1e-9));
  EXPECT_TRUE(c_heap.approx_equal(golden, 1e-9));
  EXPECT_EQ(stat_fields(lim_stats), pin.lim.stats);
  EXPECT_EQ(product_digest(c_lim), pin.lim.digest);
  EXPECT_EQ(stat_fields(heap_stats), pin.heap.stats);
  EXPECT_EQ(product_digest(c_heap), pin.heap.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, PinnedCounters,
    ::testing::Values(
        PinnedCase{"rmat",
                   {{136591, 19216, 93507, 92794, 22205, 88820, 0, 0, 0,
                     93507, 45984, 32, 6328},
                    0x9e70fdee86c7ef02ull},
                   {{2018981, 0, 0, 0, 0, 0, 93507, 1588894, 93507, 93507,
                     45984, 32, 6328},
                    0x9e70fdee86c7ef02ull}},
        PinnedCase{"band",
                   {{58321, 6670, 21168, 18637, 3525, 14100, 0, 0, 0, 21168,
                     15314, 288, 29388},
                    0xbc1041f9b60f6a50ull},
                   {{162671, 0, 0, 0, 0, 0, 21168, 33496, 21168, 21168,
                     15314, 288, 29388},
                    0xbc1041f9b60f6a50ull}},
        PinnedCase{"contract",
                   {{192185, 2904, 148667, 148667, 36508, 146032, 0, 0, 0,
                     148667, 15488, 128, 37385},
                    0x1ce698c7541e8f08ull},
                   {{1179437, 0, 0, 0, 0, 0, 148667, 525208, 148667, 148667,
                     15488, 128, 37385},
                    0x1ce698c7541e8f08ull}},
        PinnedCase{"rect",
                   {{65658, 14496, 34756, 34463, 7780, 31120, 0, 0, 0, 34756,
                     30533, 24, 4127},
                    0xd2bc3d2adacbe7d5ull},
                   {{352514, 0, 0, 0, 0, 0, 34756, 176072, 34756, 34756,
                     30533, 24, 4127},
                    0xd2bc3d2adacbe7d5ull}}),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return std::string(info.param.name);
    });

TEST(Dram, StreamingBeatsRandomAccess) {
  const DramConfig cfg;
  // The whole point of the [12] sub-block layout.
  EXPECT_LT(dram_stream_cycles(cfg, 10000), dram_random_cycles(cfg, 10000));
  EXPECT_EQ(dram_stream_cycles(cfg, 0), 0);
  // Streaming asymptote: within ~25% of words/bandwidth (activations add
  // one t_activate per row).
  const auto c = dram_stream_cycles(cfg, 100000);
  EXPECT_NEAR(static_cast<double>(c), 100000 / cfg.words_per_cycle, 0.25 * c);
}

TEST(Dram, ActivationCostVisibleOnSmallBlocks) {
  DramConfig cfg;
  const auto tiny = dram_stream_cycles(cfg, 8);
  EXPECT_GT(tiny, 8 / static_cast<std::int64_t>(cfg.words_per_cycle));
}

TEST(Chip, ModelsHaveSection5Shape) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const ChipModel lim = build_lim_chip(process, cells);
  const ChipModel base = build_baseline_chip(process, cells);
  // Paper §5: LiM clock ~35% slower; LiM power per clock lower; LiM core
  // ~20% bigger.
  EXPECT_GT(lim.fmax, 200e6);
  EXPECT_LT(lim.fmax, base.fmax);
  EXPECT_GT(lim.fmax / base.fmax, 0.5);
  EXPECT_LT(lim.power(), base.power());
  EXPECT_GT(lim.core_area, base.core_area);
  EXPECT_LT(lim.core_area, 1.6 * base.core_area);
  // Both chips expose their storage for soft-error budgeting; the raw
  // (undereated) SEU FIT follows the process upset rate linearly.
  EXPECT_GT(lim.mem_bits, 0.0);
  EXPECT_GT(base.mem_bits, 0.0);
  EXPECT_GT(lim.raw_seu_fit(process), 0.0);
  EXPECT_NEAR(lim.raw_seu_fit(process) / base.raw_seu_fit(process),
              lim.mem_bits / base.mem_bits, 1e-9);
}

TEST(Chip, BenchmarkResultConsistency) {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);
  const ChipModel lim = build_lim_chip(process, cells);
  const spgemm::SparseMatrix a = random_matrix(256, 1500, 13);
  spgemm::SparseMatrix product;
  const BenchmarkResult res = run_benchmark(lim, true, a, CoreConfig{}, &product);
  EXPECT_NEAR(res.seconds, static_cast<double>(res.stats.cycles) / lim.fmax,
              1e-15);
  EXPECT_NEAR(res.joules,
              static_cast<double>(res.stats.cycles) * lim.energy_per_cycle,
              1e-20);
  EXPECT_TRUE(product.approx_equal(spgemm::multiply_reference(a, a), 1e-9));
}

}  // namespace
}  // namespace limsynth::arch
