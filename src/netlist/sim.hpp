// Gate-level two-phase logic simulation.
//
// Plays the role Modelsim plays in the paper's flow: functional
// verification of the elaborated netlists and generation of switching
// activity (.saif substitute) for power analysis. Memory-brick macros are
// attached as behavioral models through the MacroModel interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netlist/bound.hpp"
#include "netlist/netlist.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::netlist {

/// Strips the drive suffix: "NAND2_X4" -> "NAND2". Both simulation
/// engines use it to map instance cell names onto CellFunc templates.
std::string cell_stem(const std::string& cell);

/// Number of lanes a macro-port plane carries (bit L = lane L).
inline constexpr int kLanes = 64;
/// All-lanes mask.
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// The macro-port contract between a simulation engine and the behavioral
/// models attached to it. It is lane-wise: a port value is a plane whose
/// bit L is the net's value in lane L. The scalar engines
/// (netlist::Simulator, evsim::EventSimulator) present lane 0 only — read
/// returns 0 or 1 and drive honours bit 0 — while bitsim::BatchSim presents
/// all 64 lanes. Ports are plain NetIds the model resolved once at attach
/// (MacroModel::bind), so a clock edge costs no name lookups.
class MacroPorts {
 public:
  virtual ~MacroPorts() = default;
  /// Current plane of a port net (the event engine reads X as 0).
  virtual std::uint64_t read(NetId net) const = 0;
  /// Drives a macro output net for the new cycle in the lanes set in
  /// `lane_mask` (the event engine lands it at the annotated CK->pin
  /// delay).
  virtual void drive(NetId net, std::uint64_t value,
                     std::uint64_t lane_mask) = 0;
  /// Counts one access cycle of `inst` for activity statistics.
  virtual void note_access(InstId inst) = 0;
};

/// Resolves the `width` pins "<base>[0]".."<base>[width-1]" of a macro
/// instance to their nets, in index order. Throws Error(kInvalidConfig)
/// naming the instance and the first missing pin.
std::vector<NetId> macro_bus(const Netlist& nl, InstId inst,
                             const std::string& base, int width);
/// Single-pin form of macro_bus (e.g. "MATCH"); same error contract.
NetId macro_pin(const Netlist& nl, InstId inst, const std::string& pin);

/// Behavioral model for a macro instance (e.g. a memory brick bank), the
/// one model contract every engine drives. bind() runs once when the model
/// is attached; on_clock() then runs on every clock edge with read access
/// to current port planes and the ability to drive its output lanes for
/// the new cycle. Models keep per-lane state, so one model instance serves
/// a scalar engine (lane 0) or a 64-lane bit-plane engine alike.
class MacroModel {
 public:
  virtual ~MacroModel() = default;
  /// Resolves the model's port nets on `inst` (see macro_bus). Called
  /// from MacroBindings::attach only; the default model has no ports.
  virtual void bind(const Netlist& /*nl*/, InstId /*inst*/) {}
  /// Invoked at the clock edge, before combinational resettling, on
  /// pre-edge port values.
  virtual void on_clock(MacroPorts& ports, InstId inst) = 0;

  // State mutation surface: models with internal storage expose it as
  // state_rows() words of state_bits() bits each per lane, so fault
  // injectors (SEU campaigns) and checkpointers can read and corrupt live
  // state without knowing the concrete model type. Scalar engines use
  // lane 0. The default is a model with no inspectable state; peek/poke
  // on it throw Error(kInvalidConfig).
  virtual int state_rows() const { return 0; }
  virtual int state_bits() const { return 0; }
  /// Reads lane `lane`'s stored word `row`. Throws Error(kInvalidConfig)
  /// when the lane or row is out of range or the model exposes no state.
  virtual std::uint64_t peek(int lane, int row) const;
  /// Overwrites lane `lane`'s stored word `row` (value is masked to
  /// state_bits()). Same error contract as peek. Side-band state (e.g. CAM
  /// validity flags) is left untouched — a poke models corrupted storage,
  /// not a write access.
  virtual void poke(int lane, int row, std::uint64_t value);
  /// Single-event upset helper: XORs `mask` into one lane's stored word.
  void flip_state_bits(int lane, int row, std::uint64_t mask) {
    poke(lane, row, peek(lane, row) ^ mask);
  }
};

/// Watchdog budgets for the settle fixpoint. Zero fields mean "automatic":
/// max_passes defaults to instance count + 2 (enough for any acyclic
/// netlist) and wall_seconds to unlimited.
struct SettleBudget {
  std::size_t max_passes = 0;
  double wall_seconds = 0.0;
};

class Simulator final : public MacroPorts {
 public:
  Simulator(const Netlist& nl, const tech::StdCellLib& cells);

  /// Attaches a behavioral model to a macro instance, binding its ports.
  /// Throws Error(kInvalidConfig) when the instance lacks a model port.
  void attach(InstId inst, std::shared_ptr<MacroModel> model);

  /// Sets a primary input (call settle() afterwards).
  void set_input(NetId net, bool value);
  void set_bus(const std::vector<NetId>& bus, std::uint64_t value);

  /// Propagates combinational logic to a fixpoint. Throws
  /// Error(kNonConvergence) naming the still-oscillating nets when the
  /// pass budget runs out (combinational loop), and
  /// Error(kResourceExhausted) when the wall-clock budget does.
  void settle();

  /// Overrides the settle watchdog budgets (see SettleBudget).
  void set_settle_budget(const SettleBudget& budget) { budget_ = budget; }

  /// One rising clock edge: DFFs capture, macro models fire, then logic
  /// resettles. Counts as one cycle for activity statistics.
  void clock_edge();

  bool value(NetId net) const;
  std::uint64_t bus_value(const std::vector<NetId>& bus) const;

  /// Fault-injection hook: clamps a net to a fixed value. A forced net
  /// resists every driver (primary inputs, gates, flops, macro models)
  /// until released — the gate-level model of a stuck-at net, e.g. a
  /// defective word line or bank-select wire.
  void force_net(NetId net, bool value);
  void release_net(NetId net);

  /// Activity statistics for power analysis.
  std::uint64_t toggles(NetId net) const;
  std::uint64_t cycles() const { return cycles_; }
  /// Toggle rate per cycle of a net (both edges counted).
  double activity(NetId net) const;
  /// Number of clock cycles in which a macro instance was "accessed"
  /// (its model reported activity via MacroPorts::note_access).
  std::uint64_t macro_accesses(InstId inst) const;

  const Netlist& netlist() const { return nl_; }
  /// The shared macro-model binding table (attach/access accounting).
  const MacroBindings& macro_bindings() const { return macros_; }

 private:
  // MacroPorts, reached by attached models only: lane 0 of each plane.
  std::uint64_t read(NetId net) const override { return value(net) ? 1 : 0; }
  void drive(NetId net, std::uint64_t v, std::uint64_t lane_mask) override {
    if (lane_mask & 1) set_net(net, (v & 1) != 0, true);
  }
  void note_access(InstId inst) override { macros_.note_access(inst); }

  /// Per-instance resolution of cell function and pin nets, computed once
  /// at construction so settle()/clock_edge() run index-only (no string
  /// lookups on the hot path).
  struct GateBinding {
    tech::CellFunc func = tech::CellFunc::kInv;
    bool known = false;       // cell stem found in the StdCellLib
    bool sequential = false;
    int nin = 0;
    NetId out = kNoNet;                          // Y
    NetId in[4] = {kNoNet, kNoNet, kNoNet, kNoNet};  // A, B, C, D
    NetId d = kNoNet, q = kNoNet, en = kNoNet;   // DFF/DFFE pins
    std::int8_t missing_input = -1;  // first unresolved input position
  };

  void set_net(NetId net, bool value, bool count_toggle);
  bool eval_gate(InstId id, const GateBinding& gb) const;

  const Netlist& nl_;
  std::vector<GateBinding> gates_;  // parallel to instance storage
  std::vector<bool> values_;
  std::vector<bool> ff_state_;  // per instance (DFF/DFFE)
  std::vector<std::uint64_t> toggle_counts_;
  std::map<NetId, bool> forced_;  // stuck-at net faults
  MacroBindings macros_;
  std::uint64_t cycles_ = 0;
  SettleBudget budget_;
};

}  // namespace limsynth::netlist
