// Behavioral models for brick macros, attached to the gate-level
// simulator for functional verification and switching-activity capture.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/inject.hpp"
#include "netlist/sim.hpp"

namespace limsynth::lim {

/// 1R1W SRAM bank: RWL/WWL decoded wordline buses, WDATA in, DO out.
/// Contents persist across cycles; reads are synchronous (DO updates at
/// the clock edge, like the clocked brick).
///
/// An optional fault overlay (set_faults) corrupts every read exactly
/// where the chip's sampled defect map says — stuck bitcells, dead
/// wordlines/bitlines, dead bricks — including any repair remap the map
/// carries.
///
/// With `data_bits` > 0 the bank also reference-decodes every word its read
/// port returns (fault::secded_decode over `bits`-wide codewords), so SEU
/// campaigns see whether the live SECDED logic had to correct — or failed
/// to correct — a read. The decode sees the post-write composite of the
/// RWL-hot rows as stored (no defect overlay), like bitsim::BatchSramBank.
class SramBankModel : public netlist::MacroModel {
 public:
  SramBankModel(int rows, int bits, int data_bits = 0)
      : rows_(rows), bits_(bits), data_bits_(data_bits),
        mem_(static_cast<std::size_t>(rows), 0) {}

  /// Resolves WWL/RWL[rows] and WDATA/DO[bits]; throws
  /// Error(kInvalidConfig) naming the first missing pin.
  void bind(const netlist::Netlist& nl, netlist::InstId inst) override;
  void on_clock(netlist::MacroPorts& ports, netlist::InstId inst) override;

  /// Sticky SECDED observations (always false when data_bits == 0): a
  /// read's reference decode corrected a single-bit error / flagged a
  /// double-bit error.
  bool corrected_seen() const { return corrected_seen_; }
  bool due_seen() const { return due_seen_; }

  /// Installs the defect overlay; `bank` selects this instance's bank in
  /// the chip-wide map.
  void set_faults(std::shared_ptr<const fault::FaultMap> map, int bank) {
    faults_ = std::move(map);
    bank_index_ = bank;
  }

  /// Backdoor access for tests.
  std::uint64_t word(int row) const { return peek(row); }
  void set_word(int row, std::uint64_t v) { poke(row, v); }

  // State mutation surface (netlist::MacroModel): the stored words, for
  // SEU injection and live verification.
  int state_rows() const override { return rows_; }
  int state_bits() const override { return bits_; }
  std::uint64_t peek(int row) const override;
  void poke(int row, std::uint64_t value) override;

 private:
  int rows_;
  int bits_;
  int data_bits_;
  std::vector<std::uint64_t> mem_;
  std::vector<netlist::NetId> wwl_, rwl_, wdata_, do_;
  std::shared_ptr<const fault::FaultMap> faults_;
  int bank_index_ = 0;
  bool corrected_seen_ = false;
  bool due_seen_ = false;
};

/// CAM bank: stores index words; on search (SDATA), MATCH goes high when
/// any row equals the search word; DO returns the matching row's index
/// (priority: lowest row). Writes via WWL/WDATA as in the SRAM.
///
/// The fault overlay injects match-line stuck faults: a stuck-0 row can
/// never match, a stuck-1 row always raises MATCH regardless of its
/// contents or validity.
class CamBankModel : public netlist::MacroModel {
 public:
  CamBankModel(int rows, int bits)
      : rows_(rows), bits_(bits),
        mem_(static_cast<std::size_t>(rows), 0),
        valid_(static_cast<std::size_t>(rows), false) {}

  /// Resolves WWL[rows], WDATA/SDATA/DO[bits] and MATCH; throws
  /// Error(kInvalidConfig) naming the first missing pin.
  void bind(const netlist::Netlist& nl, netlist::InstId inst) override;
  void on_clock(netlist::MacroPorts& ports, netlist::InstId inst) override;

  void set_faults(std::shared_ptr<const fault::FaultMap> map, int bank) {
    faults_ = std::move(map);
    bank_index_ = bank;
  }

  void set_word(int row, std::uint64_t v, bool valid = true) {
    poke(row, v);
    valid_.at(static_cast<std::size_t>(row)) = valid;
  }
  std::uint64_t word(int row) const { return peek(row); }
  bool is_valid(int row) const { return valid_.at(static_cast<std::size_t>(row)); }

  // State mutation surface. A poke corrupts the stored index word only;
  // the validity flag is side-band state an SEU in the array cannot reach.
  int state_rows() const override { return rows_; }
  int state_bits() const override { return bits_; }
  std::uint64_t peek(int row) const override;
  void poke(int row, std::uint64_t value) override;

 private:
  int rows_;
  int bits_;
  std::vector<std::uint64_t> mem_;
  std::vector<bool> valid_;
  std::vector<netlist::NetId> wwl_, wdata_, sdata_, do_;
  netlist::NetId match_ = netlist::kNoNet;
  std::shared_ptr<const fault::FaultMap> faults_;
  int bank_index_ = 0;
};

}  // namespace limsynth::lim
