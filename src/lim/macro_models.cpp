#include "lim/macro_models.hpp"

#include "fault/repair.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

namespace {

std::uint64_t word_mask(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

std::uint64_t SramBankModel::peek(int row) const {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "SRAM bank peek row " << row << " outside [0, " << rows_
                                       << ")");
  return mem_[static_cast<std::size_t>(row)];
}

void SramBankModel::poke(int row, std::uint64_t value) {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "SRAM bank poke row " << row << " outside [0, " << rows_
                                       << ")");
  mem_[static_cast<std::size_t>(row)] = value & word_mask(bits_);
}

std::uint64_t CamBankModel::peek(int row) const {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "CAM bank peek row " << row << " outside [0, " << rows_
                                      << ")");
  return mem_[static_cast<std::size_t>(row)];
}

void CamBankModel::poke(int row, std::uint64_t value) {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 "CAM bank poke row " << row << " outside [0, " << rows_
                                      << ")");
  mem_[static_cast<std::size_t>(row)] = value & word_mask(bits_);
}

void SramBankModel::bind(const netlist::Netlist& nl, netlist::InstId inst) {
  wwl_ = netlist::macro_bus(nl, inst, "WWL", rows_);
  rwl_ = netlist::macro_bus(nl, inst, "RWL", rows_);
  wdata_ = netlist::macro_bus(nl, inst, "WDATA", bits_);
  do_ = netlist::macro_bus(nl, inst, "DO", bits_);
}

void SramBankModel::on_clock(netlist::MacroPorts& ports,
                             netlist::InstId inst) {
  LIMS_CHECK_MSG(wwl_.size() == static_cast<std::size_t>(rows_),
                 "SRAM bank model clocked before attach");
  // Write port. Functional decode is one-hot by construction, but a
  // transient fault on a decoder net can hold several wordlines hot at
  // the capture edge. Every open row then latches the driven bitline
  // data — a destructive multi-write — so no one-hot invariant is
  // asserted here.
  bool wrote = false;
  std::uint64_t wv = 0;
  for (int r = 0; r < rows_; ++r) {
    if (!ports.read(wwl_[static_cast<std::size_t>(r)])) continue;
    if (!wrote) {
      for (int j = 0; j < bits_; ++j)
        if (ports.read(wdata_[static_cast<std::size_t>(j)]))
          wv |= (std::uint64_t{1} << j);
      wrote = true;
    }
    mem_[static_cast<std::size_t>(r)] = wv;
  }
  if (wrote) ports.note_access(inst);
  // Read port. Precharged bitlines discharge when any selected cell
  // holds a 0, so a multi-hot read resolves to the bitwise AND of the
  // selected rows. `stored` is the same composite without the defect
  // overlay — the word the SECDED reference decode sees.
  bool read = false;
  std::uint64_t rv = word_mask(bits_);
  std::uint64_t stored = rv;
  for (int r = 0; r < rows_; ++r) {
    if (!ports.read(rwl_[static_cast<std::size_t>(r)])) continue;
    std::uint64_t v = mem_[static_cast<std::size_t>(r)];
    stored &= v;
    if (faults_) v = faults_->corrupt_read(bank_index_, r, v);
    rv &= v;
    read = true;
  }
  if (read) {
    for (int j = 0; j < bits_; ++j)
      ports.drive(do_[static_cast<std::size_t>(j)], (rv >> j) & 1);
    ports.note_access(inst);
    if (data_bits_ > 0) {
      const fault::SecdedDecode d = fault::secded_decode(stored, data_bits_);
      corrected_seen_ = corrected_seen_ || d.corrected;
      due_seen_ = due_seen_ || d.uncorrectable;
    }
  }
}

void CamBankModel::bind(const netlist::Netlist& nl, netlist::InstId inst) {
  wwl_ = netlist::macro_bus(nl, inst, "WWL", rows_);
  wdata_ = netlist::macro_bus(nl, inst, "WDATA", bits_);
  sdata_ = netlist::macro_bus(nl, inst, "SDATA", bits_);
  do_ = netlist::macro_bus(nl, inst, "DO", bits_);
  match_ = netlist::macro_pin(nl, inst, "MATCH");
}

void CamBankModel::on_clock(netlist::MacroPorts& ports, netlist::InstId inst) {
  LIMS_CHECK_MSG(match_ != netlist::kNoNet,
                 "CAM bank model clocked before attach");
  // Write port (stores + validates an entry). As with the SRAM bank, a
  // decoder transient can light several wordlines; each open row takes
  // the entry (destructive multi-write).
  bool wrote = false;
  std::uint64_t wv = 0;
  for (int r = 0; r < rows_; ++r) {
    if (!ports.read(wwl_[static_cast<std::size_t>(r)])) continue;
    if (!wrote) {
      for (int j = 0; j < bits_; ++j)
        if (ports.read(wdata_[static_cast<std::size_t>(j)]))
          wv |= (std::uint64_t{1} << j);
      wrote = true;
    }
    set_word(r, wv);
  }
  if (wrote) ports.note_access(inst);

  // Search: single-cycle match against all valid rows.
  std::uint64_t key = 0;
  for (int j = 0; j < bits_; ++j)
    if (ports.read(sdata_[static_cast<std::size_t>(j)]))
      key |= (std::uint64_t{1} << j);
  int hit = -1;
  for (int r = 0; r < rows_; ++r) {
    if (faults_) {
      const int forced = faults_->match_override_logical(bank_index_, r);
      if (forced == 0) continue;  // match line stuck low: can never hit
      if (forced == 1) {          // stuck high: hits regardless of contents
        hit = r;
        break;
      }
    }
    if (valid_[static_cast<std::size_t>(r)] &&
        mem_[static_cast<std::size_t>(r)] == key) {
      hit = r;
      break;  // priority: lowest index
    }
  }
  ports.drive(match_, hit >= 0);
  for (int j = 0; j < bits_; ++j)
    ports.drive(do_[static_cast<std::size_t>(j)], hit >= 0 && ((hit >> j) & 1));
  ports.note_access(inst);
}

}  // namespace limsynth::lim
