// spgemm: the paper's Fig. 6 SpGEMM comparison on fixed matrix shapes.
//
// One item is a pair of seed-drawn matrices, each run through
// arch::run_benchmark on the LiM CAM chip and on the heap/FIFO chip:
//   rmat: a power-law R-MAT in the social_syn shape at scale 9 (wide
//         merges), and
//   band: a banded matrix in the road_syn shape (narrow merges).
// The set-up builds both chip models. Products are checked against the
// Gustavson reference outside the timed region; the traced split calls
// the two core models directly and must reproduce every CoreStats field,
// latency, energy and product.
#include <tuple>

#include "arch/chip.hpp"
#include "brick/cache.hpp"
#include "harness.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"

namespace limbench {
namespace {

using namespace limsynth;

constexpr int kShapes = 2;
const char* const kShapeNames[kShapes] = {"rmat", "band"};

spgemm::SparseMatrix make_shape(int shape, Rng& rng) {
  if (shape == 0) return spgemm::gen_rmat(9, 26 * 512, 0.55, 0.18, 0.18, rng);
  return spgemm::gen_banded(8192, 12, 4, rng);
}

void digest_matrix(const spgemm::SparseMatrix& m, Digest& d) {
  d.add(m.rows());
  d.add(m.cols());
  for (int c = 0; c < m.cols(); ++c) {
    d.add(m.col_begin(c));
    for (int k = m.col_begin(c); k < m.col_end(c); ++k) {
      d.add(m.row_index(k));
      d.add(m.value(k));
    }
  }
}

void digest_stats(const arch::CoreStats& s, Digest& d) {
  for (std::int64_t v :
       {s.cycles, s.broadcasts, s.searches, s.inserts, s.spills,
        s.spilled_entries, s.pops, s.shift_cycles, s.fifo_loads,
        s.multiplies, s.output_entries, s.block_tasks, s.load_cycles})
    d.add(v);
}

// One chip's run of one matrix.
struct Run {
  arch::BenchmarkResult result;
  spgemm::SparseMatrix product;

  void digest(Digest& d) const {
    digest_stats(result.stats, d);
    d.add(result.seconds);
    d.add(result.joules);
    digest_matrix(product, d);
  }
};

class Spgemm final : public Workload {
 public:
  void setup() override {
    brick::BrickCache::global().clear();
    const tech::Process process = tech::default_process();
    const tech::StdCellLib cells(process);
    lim_chip_ = arch::build_lim_chip(process, cells);
    heap_chip_ = arch::build_baseline_chip(process, cells);
  }

  void traced_setup(Spans& s) override {
    s.time("arch.build_chips_ms", [&] { setup(); });
  }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    for (int i = 0; i < kShapes; ++i) matrices_[i] = make_shape(i, rng);
  }

  void run() override {
    for (int i = 0; i < kShapes; ++i) {
      lim_[i].result = arch::run_benchmark(lim_chip_, true, matrices_[i],
                                           config_, &lim_[i].product);
      heap_[i].result = arch::run_benchmark(heap_chip_, false, matrices_[i],
                                            config_, &heap_[i].product);
    }
  }

  bool check() override {
    for (int i = 0; i < kShapes; ++i) {
      const spgemm::SparseMatrix ref =
          spgemm::multiply_reference(matrices_[i], matrices_[i]);
      if (!lim_[i].product.approx_equal(ref, 1e-9) ||
          !heap_[i].product.approx_equal(ref, 1e-9))
        return false;
      if (lim_[i].result.stats.cycles <= 0 ||
          heap_[i].result.stats.cycles <= 0)
        return false;
    }
    return true;
  }

  void digest(Digest& d) const override {
    for (int i = 0; i < kShapes; ++i) {
      for (const Run* r : {&lim_[i], &heap_[i]}) {
        digest_stats(r->result.stats, d);
        d.add(r->result.seconds);
        d.add(r->result.joules);
      }
    }
  }

  void corrupt() override {
    // Perturb one value of the LiM product of the first shape.
    const spgemm::SparseMatrix& p = lim_[0].product;
    std::vector<std::tuple<int, int, double>> trips;
    for (int c = 0; c < p.cols(); ++c)
      for (int k = p.col_begin(c); k < p.col_end(c); ++k)
        trips.emplace_back(p.row_index(k), c, p.value(k));
    if (!trips.empty()) std::get<2>(trips.front()) *= 1.5;
    lim_[0].product =
        spgemm::SparseMatrix::from_triplets(p.rows(), p.cols(), trips);
  }

  void traced(Spans& s) override {
    std::int64_t lim_cycles = 0, heap_cycles = 0, shift = 0, spills = 0;
    for (int i = 0; i < kShapes; ++i) {
      const spgemm::SparseMatrix& a = matrices_[i];
      const std::string shape = kShapeNames[i];
      Run& lim = split_lim_[i];
      Run& heap = split_heap_[i];
      lim.product = s.time("arch.lim_spgemm_ms." + shape, [&] {
        return arch::lim_spgemm(a, a, config_, &lim.result.stats);
      });
      heap.product = s.time("arch.heap_spgemm_ms." + shape, [&] {
        return arch::heap_spgemm(a, a, config_, &heap.result.stats);
      });
      // run_benchmark's latency and energy.
      for (auto [run, chip] : {std::pair{&lim, &lim_chip_},
                               std::pair{&heap, &heap_chip_}}) {
        const auto cycles = static_cast<double>(run->result.stats.cycles);
        run->result.seconds = cycles / chip->fmax;
        run->result.joules = cycles * chip->energy_per_cycle;
      }
      lim_cycles += lim.result.stats.cycles;
      heap_cycles += heap.result.stats.cycles;
      shift += heap.result.stats.shift_cycles;
      spills += lim.result.stats.spills;
    }
    s.set_count("arch.lim_cycles", static_cast<double>(lim_cycles));
    s.set_count("arch.heap_cycles", static_cast<double>(heap_cycles));
    s.set_count("arch.heap_shift_cycles", static_cast<double>(shift));
    s.set_count("arch.lim_spills", static_cast<double>(spills));
  }

  bool split_matches() const override {
    Digest split, whole;
    for (int i = 0; i < kShapes; ++i) {
      split_lim_[i].digest(split);
      split_heap_[i].digest(split);
      lim_[i].digest(whole);
      heap_[i].digest(whole);
    }
    return split.value() == whole.value();
  }

  std::vector<std::pair<std::string, std::string>> layer_metrics()
      const override {
    return {{"arch.build_chips_ms", "ms"},
            {"arch.lim_spgemm_ms.rmat", "ms"},
            {"arch.lim_spgemm_ms.band", "ms"},
            {"arch.heap_spgemm_ms.rmat", "ms"},
            {"arch.heap_spgemm_ms.band", "ms"},
            {"arch.lim_ns_per_cycle", "ns"},
            {"arch.heap_ns_per_cycle", "ns"},
            {"arch.lim_cycles", "count"},
            {"arch.heap_cycles", "count"},
            {"arch.heap_shift_cycles", "count"},
            {"arch.lim_spills", "count"}};
  }

  std::map<std::string, double> summarize(
      const Spans& totals,
      const std::map<std::string, std::vector<double>>& counts,
      std::size_t items) const override {
    std::map<std::string, double> out =
        Workload::summarize(totals, counts, items);
    // The set-up is timed once per traced run, not once per item.
    out["arch.build_chips_ms"] = totals.ms().at("arch.build_chips_ms");
    // Host time per simulated cycle, over every traced item.
    double lim_ms = 0.0, heap_ms = 0.0;
    for (const char* shape : kShapeNames) {
      lim_ms += totals.ms().at(std::string("arch.lim_spgemm_ms.") + shape);
      heap_ms += totals.ms().at(std::string("arch.heap_spgemm_ms.") + shape);
    }
    out["arch.lim_ns_per_cycle"] = lim_ms * 1e6 / totals.counts().at("arch.lim_cycles");
    out["arch.heap_ns_per_cycle"] = heap_ms * 1e6 / totals.counts().at("arch.heap_cycles");
    return out;
  }

 private:
  arch::ChipModel lim_chip_;
  arch::ChipModel heap_chip_;
  arch::CoreConfig config_;
  spgemm::SparseMatrix matrices_[kShapes];
  Run lim_[kShapes];
  Run heap_[kShapes];
  Run split_lim_[kShapes];
  Run split_heap_[kShapes];
};

}  // namespace

std::unique_ptr<Workload> make_spgemm() { return std::make_unique<Spgemm>(); }

}  // namespace limbench
