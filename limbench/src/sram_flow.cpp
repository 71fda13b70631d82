// sram_flow: the paper's Fig. 2 flow on Fig. 4b configuration E.
//
// One item is lim::build_sram + lim::run_sram_flow (150 activity cycles)
// of a 128x10 SRAM in 4 banks of two stacked 16x10 8T bricks, on the
// item's own Monte-Carlo chip sample and its own standard-cell library.
// The traced split replays run_flow's stages (synthesis, post-placement
// resize, bind, placement, STA, activity simulation, power) as separate
// public calls and must reproduce the FlowReport bit for bit.
#include <cmath>
#include <memory>

#include "brick/cache.hpp"
#include "harness.hpp"
#include "lim/flow.hpp"
#include "lim/macro_models.hpp"
#include "lim/sram_builder.hpp"

namespace limbench {
namespace {

using namespace limsynth;

constexpr int kActivityCycles = 150;

lim::SramConfig config_e() { return lim::SramConfig{128, 10, 4, 16}; }

// Every number the flow produces, bit for bit.
void digest_report(const lim::FlowReport& r, Digest& d) {
  d.add(r.synthesis.dead_removed);
  d.add(r.synthesis.buffers_added);
  d.add(r.synthesis.resized);
  d.add(r.synthesis.cell_area);
  d.add(r.synthesis.macro_area);
  d.add(r.floorplan.width);
  d.add(r.floorplan.height);
  d.add(r.floorplan.cell_area);
  d.add(r.floorplan.macro_area);
  for (const auto& [x, y] : r.floorplan.positions) {
    d.add(x);
    d.add(y);
  }
  for (const auto& p : r.floorplan.parasitics) {
    d.add(p.wire_cap);
    d.add(p.wire_res);
    d.add(p.length);
  }
  d.add(r.timing.min_period);
  d.add(r.timing.critical_endpoint);
  for (const auto& p : r.timing.critical_path) {
    d.add(p.where);
    d.add(p.arrival);
    d.add(p.slew);
  }
  d.add(r.timing.worst_hold_slack);
  d.add(r.timing.hold_endpoint);
  d.add(r.timing.net_arrival);
  d.add(r.timing.net_slew);
  const power::PowerReport& pw = r.power;
  for (double v : {pw.combinational, pw.sequential, pw.clock_tree, pw.macro,
                   pw.glitch, pw.leakage, pw.energy_per_cycle})
    d.add(v);
  for (double v : {r.fmax, r.analysis_frequency, r.area, r.wirelength})
    d.add(v);
}

class SramFlow final : public Workload {
 public:
  void setup() override {
    base_ = tech::default_process();
    config_e().validate();
  }

  void prepare(std::uint64_t seed) override {
    // A fresh process per item: no brick compiled for an earlier item may
    // be served from the process-wide cache.
    brick::BrickCache::global().clear();
    Rng rng(seed);
    process_ = base_.monte_carlo_chip(rng);
    cells_ = std::make_unique<tech::StdCellLib>(process_);
    options_ = lim::FlowOptions{};
    options_.activity_cycles = kActivityCycles;
    options_.stimulus_seed = rng.next_u64();
  }

  void run() override {
    lim::SramDesign d = lim::build_sram(config_e(), process_, *cells_);
    report_ = lim::run_sram_flow(d, *cells_, process_, options_);
  }

  bool check() override {
    const lim::FlowReport& r = report_;
    auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    // Fig. 4b puts config E near 3 GHz (2.6-3.5 GHz over the corners); the
    // band only rejects gross failures.
    return positive(r.fmax) && r.fmax > 1e8 && r.fmax < 1e10 &&
           same_bits(r.analysis_frequency, r.fmax) &&
           positive(r.power.energy_per_cycle) && positive(r.power.total()) &&
           positive(r.area) && positive(r.wirelength) &&
           positive(r.synthesis.cell_area) &&
           positive(r.synthesis.macro_area) && !r.timing.critical_path.empty();
  }

  void digest(Digest& d) const override {
    d.add(report_.fmax);
    d.add(report_.power.energy_per_cycle);
    d.add(report_.area);
  }

  void corrupt() override { report_.fmax = std::nan(""); }

  void traced(Spans& s) override {
    brick::BrickCache::global().clear();
    lim::SramDesign d = s.time("lim.build_sram_ms", [&] {
      return lim::build_sram(config_e(), process_, *cells_);
    });
    const lim::FlowOptions& opt = options_;

    // run_flow, stage by stage.
    lim::FlowReport& rep = split_;
    rep = lim::FlowReport{};
    synth::SynthStats synthesis = s.time("synth.synthesize_ms", [&] {
      return synth::synthesize(d.nl, d.lib, *cells_, opt.synth);
    });
    std::vector<double> wire_caps(d.nl.nets().size(), 0.0);
    {
      const auto trial = s.time("netlist.bind_ms", [&] {
        return std::make_unique<netlist::BoundDesign>(d.nl, d.lib);
      });
      const place::Floorplan fp = s.time("place.place_ms", [&] {
        return place::place_design(*trial, process_);
      });
      for (std::size_t n = 0; n < wire_caps.size(); ++n)
        wire_caps[n] = fp.parasitics[n].wire_cap;
    }
    synth::SynthOptions resize_opt = opt.synth;
    resize_opt.net_wire_caps = &wire_caps;
    synthesis.resized += s.time("synth.resize_ms", [&] {
      return synth::resize_gates(d.nl, d.lib, *cells_, resize_opt);
    });
    const auto bound = s.time("netlist.bind_ms", [&] {
      return std::make_unique<netlist::BoundDesign>(d.nl, d.lib);
    });

    // run_analyses.
    rep.floorplan = s.time("place.place_ms", [&] {
      return place::place_design(*bound, process_);
    });
    rep.area = rep.floorplan.area;
    rep.wirelength = rep.floorplan.total_wirelength;
    sta::StaOptions sta_opt = opt.sta;
    sta_opt.floorplan = &rep.floorplan;
    rep.timing = s.time("sta.run_sta_ms",
                        [&] { return sta::run_sta(*bound, sta_opt); });
    rep.fmax = rep.timing.fmax();

    std::unique_ptr<netlist::Simulator> sim;
    s.time("netlist.sim_ms", [&] {
      sim = std::make_unique<netlist::Simulator>(bound->netlist(), *cells_);
      const int code_bits = d.config.code_bits();
      for (netlist::InstId bank : d.banks)
        sim->attach(bank, std::make_shared<lim::SramBankModel>(
                             d.config.rows_per_bank(), code_bits));
      // run_sram_flow's stimulus.
      Rng rng(opt.stimulus_seed);
      sim->settle();
      const int addr_bits = lim::exact_log2(d.config.words);
      for (int c = 0; c < opt.activity_cycles; ++c) {
        sim->set_bus(d.raddr, rng.next_u64() & ((1u << addr_bits) - 1));
        sim->set_bus(d.waddr, rng.next_u64() & ((1u << addr_bits) - 1));
        sim->set_bus(d.wdata, rng.next_u64() & ((1ull << d.config.bits) - 1));
        sim->set_input(d.wen, rng.chance(0.5));
        sim->settle();
        sim->clock_edge();
      }
    });
    power::PowerOptions popt;
    popt.vdd = process_.vdd;
    popt.frequency = rep.fmax;
    popt.floorplan = &rep.floorplan;
    popt.sta = &rep.timing;
    rep.power = s.time("power.analyze_ms", [&] {
      return power::analyze_power(*bound, *sim, popt);
    });
    rep.analysis_frequency = popt.frequency;
    rep.synthesis = synthesis;

    s.set_count("synth.resized", synthesis.resized);
    s.set_count("netlist.cells",
                static_cast<double>(d.nl.live_instance_count()));
    s.set_count("netlist.nets", static_cast<double>(d.nl.nets().size()));
  }

  bool split_matches() const override {
    Digest split, whole;
    digest_report(split_, split);
    digest_report(report_, whole);
    return split.value() == whole.value();
  }

  std::vector<std::pair<std::string, std::string>> layer_metrics()
      const override {
    return {{"lim.build_sram_ms", "ms"},  {"synth.synthesize_ms", "ms"},
            {"synth.resize_ms", "ms"},    {"place.place_ms", "ms"},
            {"netlist.bind_ms", "ms"},    {"sta.run_sta_ms", "ms"},
            {"netlist.sim_ms", "ms"},     {"power.analyze_ms", "ms"},
            {"synth.resized", "count"},   {"netlist.cells", "count"},
            {"netlist.nets", "count"}};
  }

 private:
  tech::Process base_;
  tech::Process process_;
  std::unique_ptr<tech::StdCellLib> cells_;
  lim::FlowOptions options_;
  lim::FlowReport report_;
  lim::FlowReport split_;
};

}  // namespace

std::unique_ptr<Workload> make_sram_flow() {
  return std::make_unique<SramFlow>();
}

}  // namespace limbench
