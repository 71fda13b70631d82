// Gate-level netlist IR — the "gate-level netlist" stage of the paper's
// flow, where memory bricks appear as macro instances next to standard
// cells and all of it is handed to physical synthesis together.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace limsynth::netlist {

using NetId = int;
using InstId = int;

inline constexpr NetId kNoNet = -1;

struct Connection {
  std::string pin;  // pin name on the cell (e.g. "A", "CK", "DWL[3]")
  NetId net = kNoNet;
};

struct Instance {
  std::string name;
  std::string cell;  // LibCell name in the design's library
  std::vector<Connection> conns;

  const NetId* find_pin(const std::string& pin) const {
    for (const auto& c : conns)
      if (c.pin == pin) return &c.net;
    return nullptr;
  }
};

struct Net {
  std::string name;
};

enum class PortDir { kInput, kOutput };

struct Port {
  std::string name;
  PortDir dir = PortDir::kInput;
  NetId net = kNoNet;
};

/// Flat single-clock-domain netlist. Instances reference library cells by
/// name; bus pins use "NAME[i]" pin names against the library's bus pin
/// model (see liberty::LibCell).
class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  NetId add_net(const std::string& name);
  /// Auto-named internal net (n<k>).
  NetId make_net();
  /// Bus of nets named base[0..width).
  std::vector<NetId> make_bus(const std::string& base, int width);

  InstId add_instance(const std::string& name, const std::string& cell,
                      std::vector<Connection> conns);
  /// Removes an instance (marks dead; iteration skips it). A built
  /// connectivity index is updated in place: the instance's driver and sink
  /// entries are dropped, so the index still equals a from-scratch rebuild.
  void remove_instance(InstId inst);
  /// Swaps an instance's library cell (gate sizing). Connectivity is
  /// untouched, so the index is kept; the revision still advances, so a
  /// BoundDesign bound before the swap is stale.
  void set_cell(InstId inst, const std::string& cell);

  void add_port(const std::string& name, PortDir dir, NetId net);
  /// Designates the clock net (connected to all CK pins).
  void set_clock(NetId net) { clock_ = net; }
  NetId clock() const { return clock_; }

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Port>& ports() const { return ports_; }
  std::size_t live_instance_count() const;

  const Instance& instance(InstId id) const;
  Instance& instance(InstId id);
  bool is_live(InstId id) const { return !dead_[static_cast<std::size_t>(id)]; }
  std::size_t instance_storage_size() const { return instances_.size(); }

  const std::string& net_name(NetId net) const;
  NetId find_net(const std::string& name) const;

  /// Connectivity index (rebuilt on demand after edits that change it).
  struct PinRef {
    InstId inst;
    std::string pin;
  };
  /// Instance output pin driving the net, or nullopt semantics via
  /// inst < 0 when driven by a primary input (or floating).
  PinRef driver_of(NetId net) const;
  const std::vector<PinRef>& sinks_of(NetId net) const;
  /// O(1): port directions are flagged per net by add_port.
  bool is_primary_input(NetId net) const {
    return (port_flags(net) & kPortIn) != 0;
  }
  bool is_primary_output(NetId net) const {
    return (port_flags(net) & kPortOut) != 0;
  }

  /// Declares which pins of a cell are outputs; by default the index uses
  /// the library-conventional names (Y, Q, DO, MATCH, GCK).
  static bool is_output_pin(const std::string& pin);

  /// Invalidate the connectivity index after manual edits.
  void touch() {
    index_valid_ = false;
    ++revision_;
  }

  /// Monotonic edit counter: bumped by every structural mutation (add/remove
  /// of nets, instances, ports, set_cell, touch(), and mutable instance()
  /// access).
  /// BoundDesign captures it at bind time to detect stale bindings.
  std::uint64_t revision() const { return revision_; }

  /// Number of full connectivity-index builds so far (a cost counter for
  /// tests: edits that keep connectivity must not force one).
  std::uint64_t index_builds() const { return index_builds_; }

  /// Pre-sizes the net storage and name index for `nets` nets.
  void reserve_nets(std::size_t nets) {
    nets_.reserve(nets);
    net_index_.reserve(nets);
    port_flags_.reserve(nets);
  }

 private:
  static constexpr std::uint8_t kPortIn = 1;
  static constexpr std::uint8_t kPortOut = 2;

  std::uint8_t port_flags(NetId net) const {
    return net >= 0 && net < static_cast<NetId>(port_flags_.size())
               ? port_flags_[static_cast<std::size_t>(net)]
               : 0;
  }
  void rebuild_index() const;

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Instance> instances_;
  std::vector<bool> dead_;
  std::vector<Port> ports_;
  std::vector<std::uint8_t> port_flags_;  // kPortIn | kPortOut, per net
  NetId clock_ = kNoNet;
  std::unordered_map<std::string, NetId> net_index_;
  int auto_net_counter_ = 0;
  std::uint64_t revision_ = 0;

  mutable bool index_valid_ = false;
  /// Some net has more than one driver; removing one of them is then not a
  /// local index edit, so remove_instance falls back to a rebuild.
  mutable bool multi_driven_ = false;
  mutable std::uint64_t index_builds_ = 0;
  mutable std::vector<PinRef> drivers_;
  mutable std::vector<std::vector<PinRef>> sinks_;
};

}  // namespace limsynth::netlist
