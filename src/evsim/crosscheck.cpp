#include "evsim/crosscheck.hpp"

#include <sstream>

#include "util/error.hpp"

namespace limsynth::evsim {

namespace {

using netlist::NetId;

void grow_to(StimulusTrace& trace, std::size_t cycle) {
  if (trace.cycles.size() <= cycle) trace.cycles.resize(cycle + 1);
}

}  // namespace

void StimulusTrace::set(std::size_t cycle, NetId net, bool value) {
  grow_to(*this, cycle);
  cycles[cycle].push_back({net, value});
}

void StimulusTrace::set_bus(std::size_t cycle,
                            const std::vector<NetId>& bus,
                            std::uint64_t value) {
  LIMS_CHECK(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i)
    set(cycle, bus[i], (value >> i) & 1);
}

CrossCheckResult cross_check(const netlist::Netlist& nl,
                             const tech::StdCellLib& cells,
                             const TimingAnnotation& annotation,
                             const StimulusTrace& stimulus,
                             const AttachSettle& attach_settle,
                             const AttachEvent& attach_event) {
  netlist::Simulator golden(nl, cells);
  if (attach_settle) attach_settle(golden);
  golden.settle();

  EvsimOptions opt;
  opt.period = 0.0;     // quiesce mode: settle-equivalent cycle states
  opt.x_init = false;   // both engines power up at 0
  EventSimulator ev(nl, annotation, opt);
  if (attach_event) attach_event(ev);

  CrossCheckResult res;
  const std::size_t n_nets = nl.nets().size();
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    for (const auto& ch : stimulus.cycles[c]) {
      golden.set_input(ch.net, ch.value);
      ev.set_input(ch.net, ch.value);
    }
    golden.settle();
    golden.clock_edge();
    ev.cycle();
    ++res.cycles;
    for (std::size_t n = 0; n < n_nets; ++n) {
      const auto net = static_cast<NetId>(n);
      if (net == nl.clock()) continue;
      const Logic lv = ev.value(net);
      const bool gv = golden.value(net);
      if (!is_x(lv) && to_bool(lv) == gv) continue;
      ++res.mismatched_nets;
      if (res.first_mismatch.empty()) {
        std::ostringstream os;
        os << "cycle " << c << ": net " << nl.net_name(net) << " evsim="
           << logic_char(lv) << " settle=" << (gv ? '1' : '0');
        res.first_mismatch = os.str();
      }
    }
  }
  return res;
}

bool StaValidation::endpoint_violated(const std::string& name) const {
  for (const auto& e : endpoints)
    if (e.endpoint == name) return true;
  return false;
}

StaValidation validate_at_period(const netlist::Netlist& nl,
                                 const tech::StdCellLib& cells,
                                 const TimingAnnotation& annotation,
                                 double period,
                                 const StimulusTrace& stimulus,
                                 const AttachSettle& attach_settle,
                                 const AttachEvent& attach_event) {
  LIMS_CHECK_MSG(period > 0.0, "validate_at_period needs a positive period");
  netlist::Simulator golden(nl, cells);
  if (attach_settle) attach_settle(golden);
  golden.settle();

  EvsimOptions opt;
  opt.period = period;  // timed mode: the edge truncates the event stream
  opt.x_init = false;
  EventSimulator ev(nl, annotation, opt);
  if (attach_event) attach_event(ev);

  StaValidation res;
  res.period = period;
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    for (const auto& ch : stimulus.cycles[c]) {
      golden.set_input(ch.net, ch.value);
      ev.set_input(ch.net, ch.value);
    }
    golden.settle();
    golden.clock_edge();
    ev.cycle();
    ++res.cycles;
    // Golden captures: a flop's Q net holds the captured value right
    // after clock_edge (Q is driven by nothing else).
    for (const auto& fi : annotation.flops) {
      const Logic got = ev.flop_state(fi.inst);
      const bool want = golden.value(fi.q);
      if (is_x(got) || to_bool(got) != want) ++res.capture_mismatches;
    }
  }
  res.setup_violations = ev.setup_violations();
  res.endpoints = ev.violations_by_endpoint();
  return res;
}

}  // namespace limsynth::evsim
