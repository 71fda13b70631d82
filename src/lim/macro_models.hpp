// Behavioral models for brick macros, attached to the simulation engines
// for functional verification and switching-activity capture.
//
// There is one model per brick kind, and it serves every engine: the
// models implement the lane-wise netlist::MacroModel contract, keeping
// storage as planes (one uint64_t per stored bit per row, bit L = lane L's
// cell). On a scalar engine (netlist::Simulator, evsim::EventSimulator)
// only lane 0 is live; on bitsim::BatchSim all 64 lanes run independent
// copies of the bank through the same bitwise code.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/inject.hpp"
#include "netlist/sim.hpp"

namespace limsynth::lim {

/// Plane storage shared by the bank models: rows x bits cells, one
/// uint64_t plane per cell, with the per-lane state surface and the
/// WWL/WDATA write port both banks share.
class PlaneBank : public netlist::MacroModel {
 public:
  int state_rows() const override { return rows_; }
  int state_bits() const override { return bits_; }
  std::uint64_t peek(int lane, int row) const override;
  void poke(int lane, int row, std::uint64_t value) override;

  /// Raw storage plane of one (row, bit) cell across all lanes — the
  /// golden-XOR divergence primitive for final-state comparison.
  std::uint64_t mem_plane(int row, int bit) const {
    return mem_[cell(row, bit)];
  }

 protected:
  /// `kind` names the bank in range-check messages ("SRAM", "CAM").
  PlaneBank(const char* kind, int rows, int bits);

  std::size_t cell(int row, int bit) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(bits_) +
           static_cast<std::size_t>(bit);
  }
  void check_cell(const char* op, int lane, int row) const;
  /// Write port. Functional decode is one-hot by construction, but a
  /// transient fault on a decoder net can hold several wordlines hot at
  /// the capture edge; every open lane-row then latches the driven
  /// bitline data (a destructive multi-write), so no one-hot invariant is
  /// asserted. When `written` is non-null, written[row] gains the lanes
  /// that wrote that row. Returns the lanes that wrote any row.
  std::uint64_t write_port(netlist::MacroPorts& ports,
                           std::uint64_t* written = nullptr);

  const char* kind_;
  int rows_;
  int bits_;
  std::vector<std::uint64_t> mem_;  // [row * bits + bit] planes
  std::vector<netlist::NetId> wwl_, wdata_;

 private:
  std::vector<std::uint64_t> wd_;  // WDATA planes of the current edge
};

/// 1R1W SRAM bank: RWL/WWL decoded wordline buses, WDATA in, DO out.
/// Contents persist across cycles; reads are synchronous (DO updates at
/// the clock edge, like the clocked brick). A multi-hot read resolves to
/// the bitwise AND of the selected rows (precharged bitlines); a lane that
/// reads nothing keeps its previous DO.
///
/// Two optional overlays ride along per lane:
///
///  * a manufacturing-defect overlay (set_lane_faults):
///    FaultMap::corrupt_read is bitwise-affine per (row, bit) — out =
///    (stored & keep) | force — so probing it at stored=0 and stored=~0
///    captures every defect class (stuck cells, dead wordlines/bitlines,
///    repair remaps) as two planes applied branch-free on every read;
///  * a SECDED reference decode (`data_bits` > 0): every word the read
///    port returns is decoded (fault::secded_decode over `bits`-wide
///    codewords), accumulating sticky per-lane corrected/due masks, so SEU
///    campaigns see whether the live SECDED logic had to correct — or
///    failed to correct — a read. The decode sees the post-write composite
///    of the RWL-hot rows as stored (no defect overlay).
class SramBankModel : public PlaneBank {
 public:
  SramBankModel(int rows, int bits, int data_bits = 0);

  /// Resolves WWL/RWL[rows] and WDATA/DO[bits]; throws
  /// Error(kInvalidConfig) naming the first missing pin.
  void bind(const netlist::Netlist& nl, netlist::InstId inst) override;
  void on_clock(netlist::MacroPorts& ports, netlist::InstId inst) override;

  /// Installs one lane's defect overlay; `bank` selects this instance's
  /// bank in the chip-wide map. Lanes without an overlay read their
  /// stored words unmodified. Throws Error(kInvalidConfig) if the map's
  /// read corruption is not affine.
  void set_lane_faults(int lane, const fault::FaultMap& map, int bank);

  /// Sticky SECDED observation masks (always 0 when data_bits == 0): lanes
  /// whose reference decode ever corrected a single-bit error / flagged a
  /// double-bit error.
  std::uint64_t corrected_lanes() const { return corrected_lanes_; }
  std::uint64_t due_lanes() const { return due_lanes_; }

 private:
  int data_bits_;
  std::vector<netlist::NetId> rwl_, do_;
  std::vector<std::uint64_t> keep_, force_;  // overlay planes, mem_ layout
  std::uint64_t corrected_lanes_ = 0;
  std::uint64_t due_lanes_ = 0;
  // Per-edge scratch (member to keep on_clock allocation-free).
  std::vector<std::uint64_t> rv_, comp_;
};

/// CAM bank: stores index words; on search (SDATA), MATCH goes high when
/// any valid row equals the search word; DO returns the matching row's
/// index (priority: lowest row). Writes via WWL/WDATA as in the SRAM, and
/// a write also validates the row.
///
/// The per-lane fault overlay (set_lane_faults) injects match-line stuck
/// faults: a stuck-0 row can never match, a stuck-1 row always raises
/// MATCH regardless of its contents or validity.
class CamBankModel : public PlaneBank {
 public:
  CamBankModel(int rows, int bits);

  /// Resolves WWL[rows], WDATA/SDATA/DO[bits] and MATCH; throws
  /// Error(kInvalidConfig) naming the first missing pin.
  void bind(const netlist::Netlist& nl, netlist::InstId inst) override;
  void on_clock(netlist::MacroPorts& ports, netlist::InstId inst) override;

  void set_lane_faults(int lane, const fault::FaultMap& map, int bank);

  /// Stores one lane's entry and sets its validity flag (a backdoor
  /// write). A poke, by contrast, corrupts the stored index word only:
  /// the validity flag is side-band state an SEU in the array cannot
  /// reach.
  void set_entry(int lane, int row, std::uint64_t value, bool valid = true);
  bool is_valid(int lane, int row) const;

 private:
  std::vector<std::uint64_t> valid_;  // per row, bit L = lane L
  std::vector<std::uint64_t> stuck0_, stuck1_;  // per-row match overlays
  std::vector<netlist::NetId> sdata_, do_;
  netlist::NetId match_ = netlist::kNoNet;
  // Per-edge scratch.
  std::vector<std::uint64_t> key_, out_;
};

}  // namespace limsynth::lim
