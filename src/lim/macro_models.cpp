#include "lim/macro_models.hpp"

#include "fault/repair.hpp"
#include "util/error.hpp"

namespace limsynth::lim {

namespace {

using netlist::kAllLanes;

std::uint64_t word_mask(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Sets (on) or clears lane `lane` of `plane`.
void set_lane(std::uint64_t& plane, int lane, bool on) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  plane = on ? plane | bit : plane & ~bit;
}

}  // namespace

// ================================================================ planes

PlaneBank::PlaneBank(const char* kind, int rows, int bits)
    : kind_(kind), rows_(rows), bits_(bits) {
  LIMS_CHECK_MSG(rows > 0 && bits > 0 && bits <= 64,
                 kind << " bank of " << rows << " x " << bits
                      << " bits (need rows > 0, 1..64 bits)");
  mem_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(bits),
              0);
  wd_.assign(static_cast<std::size_t>(bits), 0);
}

void PlaneBank::check_cell(const char* op, int lane, int row) const {
  LIMS_CHECK_MSG(row >= 0 && row < rows_,
                 kind_ << " bank " << op << " row " << row << " outside [0, "
                       << rows_ << ")");
  LIMS_CHECK_MSG(lane >= 0 && lane < netlist::kLanes,
                 kind_ << " bank " << op << " lane " << lane
                       << " outside [0, " << netlist::kLanes << ")");
}

std::uint64_t PlaneBank::peek(int lane, int row) const {
  check_cell("peek", lane, row);
  std::uint64_t v = 0;
  for (int j = 0; j < bits_; ++j)
    v |= ((mem_[cell(row, j)] >> lane) & 1) << j;
  return v;
}

void PlaneBank::poke(int lane, int row, std::uint64_t value) {
  check_cell("poke", lane, row);
  for (int j = 0; j < bits_; ++j)
    set_lane(mem_[cell(row, j)], lane, (value >> j) & 1);
}

std::uint64_t PlaneBank::write_port(netlist::MacroPorts& ports,
                                    std::uint64_t* written) {
  // WDATA planes are read once, before any row updates.
  const std::size_t nb = static_cast<std::size_t>(bits_);
  std::uint64_t any = 0;
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t w = ports.read(wwl_[static_cast<std::size_t>(r)]);
    if (w == 0) continue;
    if (any == 0)
      for (std::size_t j = 0; j < nb; ++j) wd_[j] = ports.read(wdata_[j]);
    any |= w;
    std::uint64_t* m = &mem_[cell(r, 0)];
    for (std::size_t j = 0; j < nb; ++j) m[j] = (m[j] & ~w) | (wd_[j] & w);
    if (written != nullptr) written[r] |= w;
  }
  return any;
}

// ================================================================ SRAM

SramBankModel::SramBankModel(int rows, int bits, int data_bits)
    : PlaneBank("SRAM", rows, bits), data_bits_(data_bits) {
  rv_.assign(static_cast<std::size_t>(bits), 0);
  comp_.assign(static_cast<std::size_t>(bits), 0);
}

void SramBankModel::bind(const netlist::Netlist& nl, netlist::InstId inst) {
  wwl_ = netlist::macro_bus(nl, inst, "WWL", rows_);
  rwl_ = netlist::macro_bus(nl, inst, "RWL", rows_);
  wdata_ = netlist::macro_bus(nl, inst, "WDATA", bits_);
  do_ = netlist::macro_bus(nl, inst, "DO", bits_);
}

void SramBankModel::set_lane_faults(int lane, const fault::FaultMap& map,
                                    int bank) {
  check_cell("fault overlay", lane, 0);
  if (keep_.empty()) {
    keep_.assign(mem_.size(), kAllLanes);
    force_.assign(mem_.size(), 0);
  }
  for (int r = 0; r < rows_; ++r) {
    // corrupt_read is affine per bit — out = (stored & keep) | force — so
    // its zero and all-ones probes recover both planes for this row.
    const std::uint64_t c0 = map.corrupt_read(bank, r, 0);
    const std::uint64_t c1 = map.corrupt_read(bank, r, word_mask(bits_));
    LIMS_CHECK_MSG((c0 & ~c1) == 0,
                   "fault overlay is not affine on bank " << bank << " row "
                                                          << r);
    const std::uint64_t keep = c1 & ~c0;
    for (int j = 0; j < bits_; ++j) {
      set_lane(keep_[cell(r, j)], lane, (keep >> j) & 1);
      set_lane(force_[cell(r, j)], lane, (c0 >> j) & 1);
    }
  }
}

void SramBankModel::on_clock(netlist::MacroPorts& ports,
                             netlist::InstId inst) {
  LIMS_CHECK_MSG(rwl_.size() == static_cast<std::size_t>(rows_),
                 "SRAM bank model clocked before attach");
  if (write_port(ports) != 0) ports.note_access(inst);

  // Read port. Precharged bitlines discharge when any selected cell holds
  // a 0, so a multi-hot read resolves to the bitwise AND of the selected
  // rows, with each lane's defect overlay applied per row. `comp_` is the
  // same composite without the overlay — the word the SECDED reference
  // decode sees.
  const std::size_t nb = static_cast<std::size_t>(bits_);
  const bool secded = data_bits_ > 0;
  std::uint64_t any_read = 0;
  for (std::size_t j = 0; j < nb; ++j) rv_[j] = comp_[j] = kAllLanes;
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t rp = ports.read(rwl_[static_cast<std::size_t>(r)]);
    if (rp == 0) continue;
    any_read |= rp;
    const std::uint64_t nrp = ~rp;
    const std::size_t base = cell(r, 0);
    const std::uint64_t* m = &mem_[base];
    if (secded)
      for (std::size_t j = 0; j < nb; ++j) comp_[j] &= m[j] | nrp;
    if (!keep_.empty()) {
      const std::uint64_t* k = &keep_[base];
      const std::uint64_t* f = &force_[base];
      for (std::size_t j = 0; j < nb; ++j)
        rv_[j] &= ((m[j] & k[j]) | f[j]) | nrp;
    } else {
      for (std::size_t j = 0; j < nb; ++j) rv_[j] &= m[j] | nrp;
    }
  }
  if (any_read == 0) return;  // every lane keeps its previous DO
  for (std::size_t j = 0; j < nb; ++j) ports.drive(do_[j], rv_[j], any_read);
  ports.note_access(inst);
  if (!secded) return;

  // Decode per reading lane. Lanes whose composite equals lane 0's (the
  // golden lane of a batch) inherit its decode, so the common
  // all-lanes-agree case costs one decode per edge.
  const auto gather = [&](int lane) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < nb; ++j) w |= ((comp_[j] >> lane) & 1) << j;
    return w;
  };
  const bool lane0_reads = (any_read & 1) != 0;
  const std::uint64_t w0 = lane0_reads ? gather(0) : 0;
  const fault::SecdedDecode d0 =
      lane0_reads ? fault::secded_decode(w0, data_bits_)
                  : fault::SecdedDecode{};
  for (std::uint64_t lanes = any_read; lanes != 0; lanes &= lanes - 1) {
    const int lane = __builtin_ctzll(lanes);
    const std::uint64_t w = lane == 0 ? w0 : gather(lane);
    const fault::SecdedDecode d =
        (lane0_reads && w == w0) ? d0 : fault::secded_decode(w, data_bits_);
    if (d.corrected) corrected_lanes_ |= std::uint64_t{1} << lane;
    if (d.uncorrectable) due_lanes_ |= std::uint64_t{1} << lane;
  }
}

// ================================================================ CAM

CamBankModel::CamBankModel(int rows, int bits)
    : PlaneBank("CAM", rows, bits) {
  valid_.assign(static_cast<std::size_t>(rows), 0);
  key_.assign(static_cast<std::size_t>(bits), 0);
  out_.assign(static_cast<std::size_t>(bits), 0);
}

void CamBankModel::bind(const netlist::Netlist& nl, netlist::InstId inst) {
  wwl_ = netlist::macro_bus(nl, inst, "WWL", rows_);
  wdata_ = netlist::macro_bus(nl, inst, "WDATA", bits_);
  sdata_ = netlist::macro_bus(nl, inst, "SDATA", bits_);
  do_ = netlist::macro_bus(nl, inst, "DO", bits_);
  match_ = netlist::macro_pin(nl, inst, "MATCH");
}

void CamBankModel::set_entry(int lane, int row, std::uint64_t value,
                             bool valid) {
  poke(lane, row, value);
  set_lane(valid_[static_cast<std::size_t>(row)], lane, valid);
}

bool CamBankModel::is_valid(int lane, int row) const {
  check_cell("validity", lane, row);
  return (valid_[static_cast<std::size_t>(row)] >> lane) & 1;
}

void CamBankModel::set_lane_faults(int lane, const fault::FaultMap& map,
                                   int bank) {
  check_cell("fault overlay", lane, 0);
  if (stuck0_.empty()) {
    stuck0_.assign(static_cast<std::size_t>(rows_), 0);
    stuck1_.assign(static_cast<std::size_t>(rows_), 0);
  }
  for (int r = 0; r < rows_; ++r) {
    const int forced = map.match_override_logical(bank, r);
    set_lane(stuck0_[static_cast<std::size_t>(r)], lane, forced == 0);
    set_lane(stuck1_[static_cast<std::size_t>(r)], lane, forced == 1);
  }
}

void CamBankModel::on_clock(netlist::MacroPorts& ports, netlist::InstId inst) {
  LIMS_CHECK_MSG(match_ != netlist::kNoNet,
                 "CAM bank model clocked before attach");
  // Write port (stores + validates an entry in every writing lane).
  if (write_port(ports, valid_.data()) != 0) ports.note_access(inst);

  // Search: single-cycle match against all valid rows, per lane. `open`
  // holds the lanes still without a hit, so the first (lowest) matching
  // row wins each lane.
  const std::size_t nb = static_cast<std::size_t>(bits_);
  for (std::size_t j = 0; j < nb; ++j) {
    key_[j] = ports.read(sdata_[j]);
    out_[j] = 0;
  }
  const bool faults = !stuck0_.empty();
  std::uint64_t open = kAllLanes;
  for (int r = 0; r < rows_ && open != 0; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    std::uint64_t hit = valid_[ri] & open;
    if (hit != 0) {
      const std::uint64_t* m = &mem_[cell(r, 0)];
      for (std::size_t j = 0; j < nb; ++j) hit &= ~(m[j] ^ key_[j]);
    }
    // Match line stuck low: can never hit; stuck high: hits regardless
    // of contents or validity.
    if (faults) hit = ((hit & ~stuck0_[ri]) | stuck1_[ri]) & open;
    if (hit == 0) continue;
    open &= ~hit;
    for (std::size_t j = 0; j < nb; ++j)
      if ((static_cast<std::uint64_t>(r) >> j) & 1) out_[j] |= hit;
  }
  ports.drive(match_, ~open, kAllLanes);
  for (std::size_t j = 0; j < nb; ++j) ports.drive(do_[j], out_[j], kAllLanes);
  ports.note_access(inst);
}

}  // namespace limsynth::lim
