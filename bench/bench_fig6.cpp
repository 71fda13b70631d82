// Reproduces Fig. 6 of the paper: silicon latency and energy for the LiM
// CAM-SpGEMM chip vs the standard (heap/FIFO) SpGEMM chip, over sparse
// matrix benchmarks.
//
// The paper back-annotates chip measurements (475 MHz / 72 mW vs 725 MHz /
// 96 mW) onto University of Florida matrices and reports 7x-250x faster
// completion and 10x-310x lower energy for the LiM chip. Here both chips'
// f_max come from STA on their synthesized core slices, per-cycle energy
// from the generated brick libraries, cycle counts from functionally exact
// core simulations, and the workloads are synthetic UF analogs (see
// spgemm/generate.hpp). Both cores' products are verified against the
// Gustavson reference before timing is reported.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "arch/chip.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace limsynth;

int main() {
  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);

  const arch::ChipModel lim_chip = arch::build_lim_chip(process, cells);
  const arch::ChipModel base_chip = arch::build_baseline_chip(process, cells);

  std::printf("Fig. 6: SpGEMM completion latency and energy, LiM CAM chip vs"
              " standard heap chip\n\n");
  std::printf("Chip operating points (from the synthesis flow; paper: LiM"
              " 475 MHz / 72 mW, non-LiM 725 MHz / 96 mW):\n");
  std::printf("  %-22s fmax %-10s power %-10s (%.1f pJ/cycle)\n",
              lim_chip.name.c_str(), units::format_si(lim_chip.fmax, "Hz").c_str(),
              units::format_si(lim_chip.power(), "W").c_str(),
              lim_chip.energy_per_cycle * 1e12);
  std::printf("  %-22s fmax %-10s power %-10s (%.1f pJ/cycle)\n\n",
              base_chip.name.c_str(), units::format_si(base_chip.fmax, "Hz").c_str(),
              units::format_si(base_chip.power(), "W").c_str(),
              base_chip.energy_per_cycle * 1e12);

  arch::CoreConfig cfg;

  Table t({"benchmark", "n", "nnz", "flops", "LiM time", "heap time",
           "speedup", "LiM E", "heap E", "E ratio", "check"});
  std::ofstream csv("fig6.csv");
  CsvWriter w(csv);
  w.write_row({"benchmark", "n", "nnz", "flops", "lim_s", "heap_s", "speedup",
               "lim_J", "heap_J", "energy_ratio"});

  double min_speedup = 1e30, max_speedup = 0.0;
  double min_eratio = 1e30, max_eratio = 0.0;

  for (const auto& bench : spgemm::uf_analog_suite()) {
    spgemm::SparseMatrix c_lim, c_heap;
    const auto lim_res =
        arch::run_benchmark(lim_chip, true, bench.matrix, cfg, &c_lim);
    const auto heap_res =
        arch::run_benchmark(base_chip, false, bench.matrix, cfg, &c_heap);
    const spgemm::SparseMatrix golden =
        spgemm::multiply_reference(bench.matrix, bench.matrix);
    const bool ok =
        c_lim.approx_equal(golden, 1e-9) && c_heap.approx_equal(golden, 1e-9);

    const double speedup = heap_res.seconds / lim_res.seconds;
    const double eratio = heap_res.joules / lim_res.joules;
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    min_eratio = std::min(min_eratio, eratio);
    max_eratio = std::max(max_eratio, eratio);

    t.add_row({bench.name, std::to_string(bench.matrix.rows()),
               std::to_string(bench.matrix.nnz()),
               std::to_string(bench.matrix.flops_with(bench.matrix)),
               units::format_si(lim_res.seconds, "s"),
               units::format_si(heap_res.seconds, "s"),
               strformat("%.1fx", speedup),
               units::format_si(lim_res.joules, "J"),
               units::format_si(heap_res.joules, "J"),
               strformat("%.1fx", eratio), ok ? "OK" : "MISMATCH"});
    w.write_row(bench.name,
                {static_cast<double>(bench.matrix.rows()),
                 static_cast<double>(bench.matrix.nnz()),
                 static_cast<double>(bench.matrix.flops_with(bench.matrix)),
                 lim_res.seconds, heap_res.seconds, speedup, lim_res.joules,
                 heap_res.joules, eratio});
    std::fprintf(stderr, "[fig6] %s done (%.1fx)\n", bench.name.c_str(),
                 speedup);
  }
  t.print(std::cout);

  std::printf("\nObserved ranges: speedup %.1fx..%.1fx (paper: 7x..250x),"
              " energy %.1fx..%.1fx (paper: 10x..310x)\n",
              min_speedup, max_speedup, min_eratio, max_eratio);
  // Any FAIL makes the bench exit 1 (after the CSV is written).
  bool ok = true;
  const auto check = [&](const char* what, bool pass) {
    std::printf("  %s: %s\n", what, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  };
  std::printf("Shape checks:\n");
  check("LiM wins every benchmark", min_speedup > 1.0);
  check("speedup spans >= one order of magnitude",
        max_speedup / min_speedup >= 10.0);
  check("energy ratio exceeds speedup (slower clock, lower power)",
        max_eratio > max_speedup);
  std::printf("(wrote fig6.csv)\n");
  return ok ? 0 : 1;
}
