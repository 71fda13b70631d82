// Lane-parallel SRAM bank model for the bit-plane kernel.
//
// The bit-plane counterpart of lim::SramBankModel: storage is kept as
// planes (one uint64_t per stored bit per row, bit L = lane L's cell), the
// write and read ports follow the scalar model's semantics lane-wise —
// destructive multi-write on every WWL-hot row, multi-hot reads resolving
// to the bitwise AND of selected rows — and two optional overlays ride
// along per lane:
//
//  * a manufacturing-defect overlay (set_lane_faults): FaultMap::corrupt_read
//    is bitwise-affine per (row, bit) — out = (stored & keep) | force — so
//    probing it at stored=0 and stored=~0 once per lane captures every
//    defect class (stuck cells, dead rows/columns, repair remaps) as two
//    planes applied branch-free on every read;
//  * a SECDED reference decode (data_bits > 0): the post-write composite of
//    RWL-hot rows is decoded per reading lane, accumulating sticky
//    corrected/due lane masks exactly like SramBankModel with data_bits.
//    Lanes whose composite equals the golden lane's inherit its decode, so
//    the common all-lanes-agree case costs one decode per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "bitsim/bitsim.hpp"
#include "fault/inject.hpp"

namespace limsynth::bitsim {

class BatchSramBank : public BatchMacroModel {
 public:
  /// Resolves the macro's WWL/RWL/WDATA/DO pin nets once, with the
  /// scalar models' netlist::macro_bus; `data_bits` > 0 enables the SECDED
  /// reference decode over `bits`-wide codewords. Throws
  /// Error(kInvalidConfig) when the instance lacks the expected bank pins.
  BatchSramBank(const BatchProgram& program, netlist::InstId inst, int rows,
                int bits, int data_bits = 0);

  void on_clock(BatchSim& sim, netlist::InstId inst) override;

  int state_rows() const override { return rows_; }
  int state_bits() const override { return bits_; }
  std::uint64_t peek(int lane, int row) const override;
  void poke(int lane, int row, std::uint64_t value) override;

  /// Installs one lane's defect overlay (logical-coordinate corrupt-read
  /// planes); `bank` selects this instance's bank in the chip-wide map.
  /// Lanes without an overlay read their stored words unmodified.
  void set_lane_faults(int lane, const fault::FaultMap& map, int bank);

  /// Sticky SECDED observation masks: lanes whose reference decode ever
  /// corrected a single-bit error / flagged a double-bit error.
  std::uint64_t corrected_lanes() const { return corrected_lanes_; }
  std::uint64_t due_lanes() const { return due_lanes_; }

  /// Raw storage plane of one (row, bit) cell across all lanes — the
  /// golden-XOR divergence primitive for final-state comparison.
  std::uint64_t mem_plane(int row, int bit) const {
    return mem_[static_cast<std::size_t>(row) * static_cast<std::size_t>(bits_) +
                static_cast<std::size_t>(bit)];
  }

 private:
  int rows_;
  int bits_;
  int data_bits_;
  std::vector<netlist::NetId> wwl_, rwl_, wdata_, do_;
  std::vector<std::uint64_t> mem_;  // [row * bits + bit] planes
  bool any_faults_ = false;
  std::vector<std::uint64_t> keep_, force_;  // overlay planes, same layout
  std::uint64_t corrected_lanes_ = 0;
  std::uint64_t due_lanes_ = 0;
  // Per-cycle scratch (member to keep on_clock allocation-free).
  std::vector<std::uint64_t> wd_, rv_, comp_;
};

}  // namespace limsynth::bitsim
