#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstdio>

namespace limsynth::netlist {

NetId Netlist::add_net(const std::string& name) {
  LIMS_CHECK_MSG(net_index_.find(name) == net_index_.end(),
                 "duplicate net " << name);
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back(Net{name});
  port_flags_.push_back(0);
  net_index_.emplace(nets_.back().name, id);
  index_valid_ = false;
  ++revision_;
  return id;
}

NetId Netlist::make_net() {
  // Build "n<k>" once into a preallocated buffer instead of concatenating
  // temporaries per call.
  char buf[24];
  const int len = std::snprintf(buf, sizeof buf, "n%d", auto_net_counter_++);
  return add_net(std::string(buf, static_cast<std::size_t>(len)));
}

std::vector<NetId> Netlist::make_bus(const std::string& base, int width) {
  LIMS_CHECK(width >= 1);
  std::vector<NetId> bus;
  bus.reserve(static_cast<std::size_t>(width));
  net_index_.reserve(net_index_.size() + static_cast<std::size_t>(width));
  // Reuse one name buffer: keep "base[" and rewrite only the index suffix.
  std::string name = base;
  name += '[';
  const std::size_t stem = name.size();
  for (int i = 0; i < width; ++i) {
    name.resize(stem);
    name += std::to_string(i);
    name += ']';
    bus.push_back(add_net(name));
  }
  return bus;
}

InstId Netlist::add_instance(const std::string& name, const std::string& cell,
                             std::vector<Connection> conns) {
  for (const auto& c : conns)
    LIMS_CHECK_MSG(c.net >= 0 && c.net < static_cast<NetId>(nets_.size()),
                   "instance " << name << " pin " << c.pin << " unconnected");
  const InstId id = static_cast<InstId>(instances_.size());
  instances_.push_back(Instance{name, cell, std::move(conns)});
  dead_.push_back(false);
  index_valid_ = false;
  ++revision_;
  return id;
}

void Netlist::remove_instance(InstId inst) {
  LIMS_CHECK(inst >= 0 && inst < static_cast<InstId>(instances_.size()));
  const auto i = static_cast<std::size_t>(inst);
  if (index_valid_ && !dead_[i]) {
    if (multi_driven_) {
      index_valid_ = false;
    } else {
      // Drop exactly the entries the rebuild would no longer produce; the
      // survivors keep their instance order.
      for (const auto& c : instances_[i].conns) {
        const auto net = static_cast<std::size_t>(c.net);
        if (drivers_[net].inst == inst) drivers_[net] = PinRef{-1, ""};
        auto& sinks = sinks_[net];
        sinks.erase(std::remove_if(sinks.begin(), sinks.end(),
                                   [inst](const PinRef& s) {
                                     return s.inst == inst;
                                   }),
                    sinks.end());
      }
    }
  }
  dead_[i] = true;
  ++revision_;
}

void Netlist::set_cell(InstId inst, const std::string& cell) {
  LIMS_CHECK(inst >= 0 && inst < static_cast<InstId>(instances_.size()));
  instances_[static_cast<std::size_t>(inst)].cell = cell;
  ++revision_;
}

void Netlist::add_port(const std::string& name, PortDir dir, NetId net) {
  ports_.push_back(Port{name, dir, net});
  if (net >= 0 && net < static_cast<NetId>(port_flags_.size()))
    port_flags_[static_cast<std::size_t>(net)] |=
        dir == PortDir::kInput ? kPortIn : kPortOut;
  index_valid_ = false;
  ++revision_;
}

std::size_t Netlist::live_instance_count() const {
  std::size_t n = 0;
  for (bool d : dead_)
    if (!d) ++n;
  return n;
}

const Instance& Netlist::instance(InstId id) const {
  LIMS_CHECK(id >= 0 && id < static_cast<InstId>(instances_.size()));
  return instances_[static_cast<std::size_t>(id)];
}

Instance& Netlist::instance(InstId id) {
  LIMS_CHECK(id >= 0 && id < static_cast<InstId>(instances_.size()));
  // Handing out a mutable reference may change connectivity, so both the
  // lazy index and any outstanding BoundDesign become suspect.
  index_valid_ = false;
  ++revision_;
  return instances_[static_cast<std::size_t>(id)];
}

const std::string& Netlist::net_name(NetId net) const {
  LIMS_CHECK(net >= 0 && net < static_cast<NetId>(nets_.size()));
  return nets_[static_cast<std::size_t>(net)].name;
}

NetId Netlist::find_net(const std::string& name) const {
  const auto it = net_index_.find(name);
  return it == net_index_.end() ? kNoNet : it->second;
}

bool Netlist::is_output_pin(const std::string& pin) {
  // Conventional output names, including indexed bus pins like DO[3].
  const auto base_len = pin.find('[');
  const std::string base =
      base_len == std::string::npos ? pin : pin.substr(0, base_len);
  return base == "Y" || base == "Q" || base == "DO" || base == "MATCH" ||
         base == "GCK";
}

void Netlist::rebuild_index() const {
  drivers_.assign(nets_.size(), PinRef{-1, ""});
  sinks_.assign(nets_.size(), {});
  multi_driven_ = false;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (dead_[i]) continue;
    for (const auto& c : instances_[i].conns) {
      const auto net = static_cast<std::size_t>(c.net);
      if (is_output_pin(c.pin)) {
        if (drivers_[net].inst >= 0) multi_driven_ = true;
        drivers_[net] = PinRef{static_cast<InstId>(i), c.pin};
      } else {
        sinks_[net].push_back(PinRef{static_cast<InstId>(i), c.pin});
      }
    }
  }
  index_valid_ = true;
  ++index_builds_;
}

Netlist::PinRef Netlist::driver_of(NetId net) const {
  if (!index_valid_) rebuild_index();
  return drivers_[static_cast<std::size_t>(net)];
}

const std::vector<Netlist::PinRef>& Netlist::sinks_of(NetId net) const {
  if (!index_valid_) rebuild_index();
  return sinks_[static_cast<std::size_t>(net)];
}

}  // namespace limsynth::netlist
