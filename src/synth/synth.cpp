#include "synth/synth.hpp"

#include <algorithm>
#include <map>

#include "netlist/bound.hpp"
#include "util/log.hpp"

namespace limsynth::synth {

std::string cell_stem(const std::string& cell) {
  const auto pos = cell.rfind("_X");
  return pos == std::string::npos ? cell : cell.substr(0, pos);
}

std::string pin_base(const std::string& pin) {
  const auto pos = pin.find('[');
  return pos == std::string::npos ? pin : pin.substr(0, pos);
}

namespace {

using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

/// Input pin capacitance of a sink pin against a pre-resolved cell.
double pin_cap(const liberty::LibCell& cell, const Netlist& nl,
               const Netlist::PinRef& sink) {
  const liberty::PinModel* pin = cell.find_input(pin_base(sink.pin));
  LIMS_CHECK_MSG(pin != nullptr, "cell " << nl.instance(sink.inst).cell
                                         << " has no input pin " << sink.pin);
  return pin->cap;
}

int sweep_dead(Netlist& nl, const liberty::Library& lib) {
  int removed = 0;
  // Read through a const view (the non-const instance() accessor would
  // invalidate the connectivity index on every touch). Cell identities
  // never change during dead sweeping, so resolve the macro flag once
  // instead of a library map lookup per instance per pass. remove_instance
  // edits the index in place, so the whole sweep builds it at most once.
  const Netlist& cnl = nl;
  std::vector<char> is_macro(nl.instance_storage_size(), 0);
  for (std::size_t i = 0; i < is_macro.size(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (nl.is_live(id))
      is_macro[i] = lib.cell(cnl.instance(id).cell).is_macro ? 1 : 0;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < nl.instance_storage_size(); ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id)) continue;
      const auto& inst = cnl.instance(id);
      if (is_macro[i]) continue;
      bool all_outputs_dead = true;
      bool has_output = false;
      for (const auto& c : inst.conns) {
        if (!Netlist::is_output_pin(c.pin)) continue;
        has_output = true;
        if (!nl.sinks_of(c.net).empty() || nl.is_primary_output(c.net))
          all_outputs_dead = false;
      }
      if (has_output && all_outputs_dead) {
        nl.remove_instance(id);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

int buffer_fanout(Netlist& nl, const liberty::Library& lib, int max_fanout) {
  int added = 0;
  // Collect the work first: editing invalidates the connectivity index.
  struct Job {
    NetId net;
    std::vector<Netlist::PinRef> sinks;
  };
  std::vector<Job> jobs;
  for (NetId net = 0; net < static_cast<NetId>(nl.nets().size()); ++net) {
    if (net == nl.clock()) continue;  // ideal clock tree
    const auto& sinks = nl.sinks_of(net);
    if (static_cast<int>(sinks.size()) <= max_fanout) continue;
    // Macro control pins (DWL etc.) are driven by dedicated structures the
    // generators already build; buffer them like any other net.
    jobs.push_back({net, sinks});
  }
  int uid = 0;
  for (const auto& job : jobs) {
    // Split sinks into groups; insert one buffer per group.
    const auto groups =
        (job.sinks.size() + static_cast<std::size_t>(max_fanout) - 1) /
        static_cast<std::size_t>(max_fanout);
    for (std::size_t g = 0; g < groups; ++g) {
      const NetId buf_out = nl.make_net();
      nl.add_instance(
          "fobuf_" + std::to_string(uid++),
          "BUF_X4", {{"A", job.net}, {"Y", buf_out}});
      ++added;
      const std::size_t lo = g * static_cast<std::size_t>(max_fanout);
      const std::size_t hi =
          std::min(job.sinks.size(), lo + static_cast<std::size_t>(max_fanout));
      for (std::size_t s = lo; s < hi; ++s) {
        auto& inst = nl.instance(job.sinks[s].inst);
        for (auto& c : inst.conns) {
          if (c.pin == job.sinks[s].pin && c.net == job.net) c.net = buf_out;
        }
      }
    }
    nl.touch();
  }
  (void)lib;
  return added;
}

int size_gates(Netlist& nl, const liberty::Library& lib,
               const tech::StdCellLib& cells, const SynthOptions& opt) {
  int resized = 0;
  std::map<std::string, tech::CellFunc> func_by_stem;
  for (const auto& c : cells.cells()) func_by_stem[cell_stem(c.name)] = c.func;

  // Resolve each instance's library cell and std-cell template once; the
  // arrays are updated in place when a gate is resized, so no pass ever
  // re-pays a name lookup. Topology is frozen during sizing (buffering ran
  // already), only drive strengths change: set_cell swaps a cell without
  // touching the connectivity index, so the whole pass builds it at most
  // once. Reads go through a const view: the non-const instance() accessor
  // would invalidate the index.
  const Netlist& cnl = nl;
  const std::size_t n_inst = nl.instance_storage_size();
  std::vector<const liberty::LibCell*> lib_of(n_inst, nullptr);
  std::vector<const tech::StdCell*> std_of(n_inst, nullptr);
  std::vector<int> func_of(n_inst, -1);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const std::string& cell_name = cnl.instance(id).cell;
    lib_of[i] = &lib.cell(cell_name);
    const auto fit = func_by_stem.find(cell_stem(cell_name));
    if (fit == func_by_stem.end()) continue;  // macro: leave alone
    func_of[i] = static_cast<int>(fit->second);
    std_of[i] = &cells.by_name(cell_name);
  }

  for (int pass = 0; pass < opt.sizing_passes; ++pass) {
    int pass_resized = 0;
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id) || func_of[i] < 0) continue;
      const tech::StdCell& current = *std_of[i];

      // Output load: sink pin caps + wire (extracted post-placement, or a
      // per-sink estimate before).
      double load = 0.0;
      int fanout = 0;
      for (const auto& c : cnl.instance(id).conns) {
        if (!Netlist::is_output_pin(c.pin)) continue;
        for (const auto& sink : nl.sinks_of(c.net)) {
          load += pin_cap(*lib_of[static_cast<std::size_t>(sink.inst)], nl,
                          sink);
          ++fanout;
        }
        if (nl.is_primary_output(c.net)) load += 10e-15;  // pad driver
        if (opt.net_wire_caps != nullptr)
          load += opt.net_wire_caps->at(static_cast<std::size_t>(c.net));
      }
      if (opt.net_wire_caps == nullptr)
        load += fanout * opt.wire_cap_per_sink;
      if (load <= 0.0) continue;

      // Pick the drive so the stage electrical effort is ~effort_per_stage.
      const double cin_needed =
          load / opt.effort_per_stage;  // want cin >= load / f
      const double drive_needed =
          cin_needed / (std::max(current.logical_effort, 0.5) *
                        cells.process().c_unit());
      const tech::StdCell& chosen =
          cells.pick(static_cast<tech::CellFunc>(func_of[i]), drive_needed);
      if (chosen.name != cnl.instance(id).cell) {
        nl.set_cell(id, chosen.name);
        lib_of[i] = &lib.cell(chosen.name);
        std_of[i] = &chosen;
        ++pass_resized;
      }
    }
    resized += pass_resized;
    if (pass_resized == 0) break;
  }
  return resized;
}

}  // namespace

int resize_gates(netlist::Netlist& nl, const liberty::Library& lib,
                 const tech::StdCellLib& cells, const SynthOptions& options) {
  return size_gates(nl, lib, cells, options);
}

SynthStats synthesize(netlist::Netlist& nl, const liberty::Library& lib,
                      const tech::StdCellLib& cells,
                      const SynthOptions& options) {
  SynthStats stats;
  stats.dead_removed = sweep_dead(nl, lib);
  stats.buffers_added = buffer_fanout(nl, lib, options.max_fanout);
  stats.resized = size_gates(nl, lib, cells, options);

  // Bind the synthesized result once for the area roll-up (and as a
  // sanity check that every final cell choice resolves).
  const netlist::BoundDesign bound(nl, lib);
  for (std::size_t i = 0; i < bound.instance_count(); ++i) {
    const auto id = static_cast<InstId>(i);
    if (!bound.is_live(id)) continue;
    const liberty::LibCell& cell = bound.cell(id);
    if (cell.is_macro) {
      stats.macro_area += cell.area;
    } else {
      stats.cell_area += cell.area;
    }
  }
  LIMS_INFO << "synth " << nl.name() << ": " << nl.live_instance_count()
            << " instances, dead=" << stats.dead_removed
            << " buffers=" << stats.buffers_added
            << " resized=" << stats.resized;
  return stats;
}

}  // namespace limsynth::synth
