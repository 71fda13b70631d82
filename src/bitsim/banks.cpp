#include "bitsim/banks.hpp"

#include "fault/repair.hpp"
#include "netlist/sim.hpp"
#include "util/error.hpp"

namespace limsynth::bitsim {

namespace {

std::uint64_t word_mask(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

BatchSramBank::BatchSramBank(const BatchProgram& program, netlist::InstId inst,
                             int rows, int bits, int data_bits)
    : rows_(rows), bits_(bits), data_bits_(data_bits) {
  LIMS_CHECK(rows > 0 && bits > 0 && bits <= 64);
  const netlist::Netlist& nl = program.bound().netlist();
  wwl_ = netlist::macro_bus(nl, inst, "WWL", rows);
  rwl_ = netlist::macro_bus(nl, inst, "RWL", rows);
  wdata_ = netlist::macro_bus(nl, inst, "WDATA", bits);
  do_ = netlist::macro_bus(nl, inst, "DO", bits);
  mem_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(bits),
              0);
  wd_.assign(static_cast<std::size_t>(bits), 0);
  rv_.assign(static_cast<std::size_t>(bits), 0);
  comp_.assign(static_cast<std::size_t>(bits), 0);
}

std::uint64_t BatchSramBank::peek(int lane, int row) const {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "batch SRAM bank peek row " << row << " outside [0, " << rows_
                                             << ")");
  LIMS_CHECK(lane >= 0 && lane < kLanes);
  std::uint64_t v = 0;
  const std::size_t base =
      static_cast<std::size_t>(row) * static_cast<std::size_t>(bits_);
  for (int j = 0; j < bits_; ++j)
    v |= ((mem_[base + static_cast<std::size_t>(j)] >> lane) & 1) << j;
  return v;
}

void BatchSramBank::poke(int lane, int row, std::uint64_t value) {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "batch SRAM bank poke row " << row << " outside [0, " << rows_
                                             << ")");
  LIMS_CHECK(lane >= 0 && lane < kLanes);
  value &= word_mask(bits_);
  const std::uint64_t bit = std::uint64_t{1} << lane;
  const std::size_t base =
      static_cast<std::size_t>(row) * static_cast<std::size_t>(bits_);
  for (int j = 0; j < bits_; ++j) {
    const std::size_t p = base + static_cast<std::size_t>(j);
    if ((value >> j) & 1)
      mem_[p] |= bit;
    else
      mem_[p] &= ~bit;
  }
}

void BatchSramBank::set_lane_faults(int lane, const fault::FaultMap& map,
                                    int bank) {
  LIMS_CHECK(lane >= 0 && lane < kLanes);
  if (!any_faults_) {
    keep_.assign(mem_.size(), kAllLanes);
    force_.assign(mem_.size(), 0);
    any_faults_ = true;
  }
  const std::uint64_t bit = std::uint64_t{1} << lane;
  for (int r = 0; r < rows_; ++r) {
    // corrupt_read is affine per bit — out = (stored & keep) | force — so
    // its zero and all-ones probes recover both planes for this row.
    const std::uint64_t c0 = map.corrupt_read(bank, r, 0);
    const std::uint64_t c1 = map.corrupt_read(bank, r, word_mask(bits_));
    LIMS_CHECK_MSG((c0 & ~c1) == 0,
                   "fault overlay is not affine on bank " << bank << " row "
                                                          << r);
    const std::uint64_t keep = c1 & ~c0;
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(bits_);
    for (int j = 0; j < bits_; ++j) {
      const std::size_t p = base + static_cast<std::size_t>(j);
      if ((keep >> j) & 1)
        keep_[p] |= bit;
      else
        keep_[p] &= ~bit;
      if ((c0 >> j) & 1)
        force_[p] |= bit;
      else
        force_[p] &= ~bit;
    }
  }
}

void BatchSramBank::on_clock(BatchSim& sim, netlist::InstId inst) {
  (void)inst;
  const std::size_t nb = static_cast<std::size_t>(bits_);
  // Write port: every WWL-hot lane-row latches the full WDATA word
  // (destructive multi-write, as in the scalar model). WDATA planes are
  // read once, before any row updates.
  bool any_write = false;
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t w = sim.plane(wwl_[static_cast<std::size_t>(r)]);
    if (w == 0) continue;
    if (!any_write) {
      for (std::size_t j = 0; j < nb; ++j) wd_[j] = sim.plane(wdata_[j]);
      any_write = true;
    }
    const std::size_t base = static_cast<std::size_t>(r) * nb;
    for (std::size_t j = 0; j < nb; ++j)
      mem_[base + j] = (mem_[base + j] & ~w) | (wd_[j] & w);
  }
  // Read port: precharged bitlines AND together every RWL-hot row, with
  // the per-lane defect overlay applied per row. Lanes that read nothing
  // keep their previous DO planes (the drive is masked to reading lanes).
  std::uint64_t any_read = 0;
  for (std::size_t j = 0; j < nb; ++j) rv_[j] = kAllLanes;
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t rp = sim.plane(rwl_[static_cast<std::size_t>(r)]);
    if (rp == 0) continue;
    any_read |= rp;
    const std::uint64_t nrp = ~rp;
    const std::size_t base = static_cast<std::size_t>(r) * nb;
    if (any_faults_) {
      for (std::size_t j = 0; j < nb; ++j)
        rv_[j] &= ((mem_[base + j] & keep_[base + j]) | force_[base + j]) | nrp;
    } else {
      for (std::size_t j = 0; j < nb; ++j) rv_[j] &= mem_[base + j] | nrp;
    }
  }
  if (any_read != 0)
    for (std::size_t j = 0; j < nb; ++j)
      sim.drive_net(do_[j], rv_[j], any_read);

  // SECDED reference decode of the post-write read composite (raw stored
  // words, no defect overlay — the periphery decoder sees the array as
  // written), per reading lane, exactly like lim::SramBankModel.
  if (data_bits_ > 0 && any_read != 0) {
    for (std::size_t j = 0; j < nb; ++j) comp_[j] = kAllLanes;
    for (int r = 0; r < rows_; ++r) {
      const std::uint64_t rp = sim.plane(rwl_[static_cast<std::size_t>(r)]);
      if (rp == 0) continue;
      const std::uint64_t nrp = ~rp;
      const std::size_t base = static_cast<std::size_t>(r) * nb;
      for (std::size_t j = 0; j < nb; ++j) comp_[j] &= mem_[base + j] | nrp;
    }
    const auto gather = [&](int lane) {
      std::uint64_t w = 0;
      for (std::size_t j = 0; j < nb; ++j)
        w |= ((comp_[j] >> lane) & 1) << j;
      return w;
    };
    const bool golden_reads = (any_read & 1) != 0;
    std::uint64_t gword = 0;
    fault::SecdedDecode gdec;
    if (golden_reads) {
      gword = gather(0);
      gdec = fault::secded_decode(gword, data_bits_);
    }
    for (int lane = 0; lane < kLanes; ++lane) {
      if (((any_read >> lane) & 1) == 0) continue;
      const std::uint64_t w = lane == 0 ? gword : gather(lane);
      const fault::SecdedDecode dec =
          (golden_reads && w == gword) ? gdec
                                       : fault::secded_decode(w, data_bits_);
      if (dec.corrected) corrected_lanes_ |= std::uint64_t{1} << lane;
      if (dec.uncorrectable) due_lanes_ |= std::uint64_t{1} << lane;
    }
  }
}

}  // namespace limsynth::bitsim
