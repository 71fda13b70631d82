// Differential tests for the bit-plane batch kernel: levelization
// properties, random-netlist fuzz against the scalar settle engine (all
// 64 lanes, every net, every cycle), X-pessimism consistency against the
// event engine, the lane-wise SRAM and CAM bank models on 64 lanes against
// 64 scalar runs and an independent per-lane word-array reference
// (multi-hot wordlines, per-lane starting state), and the
// per-lane state surface (peek/poke/flip) the SEU campaign drives.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bitsim/bitsim.hpp"
#include "brick/cache.hpp"
#include "evsim/evsim.hpp"
#include "fault/repair.hpp"
#include "liberty/characterize.hpp"
#include "lim/macro_models.hpp"
#include "netlist/bound.hpp"
#include "netlist/generators.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace limsynth::bitsim {
namespace {

using netlist::Builder;
using netlist::InstId;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;

struct Ctx {
  tech::Process process = tech::default_process();
  tech::StdCellLib cells{process};
  liberty::Library lib = liberty::characterize_stdcell_library(cells);
};

// ------------------------------------------------------- levelization

TEST(Levelize, OrderRespectsDependenciesAndLevelsAreDense) {
  Ctx ctx;
  Netlist nl("lv");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_port("a", netlist::PortDir::kInput, a);
  nl.add_port("b", netlist::PortDir::kInput, b);
  Builder bld(nl, "g");
  const NetId n1 = bld.inv(a);           // level 0
  const NetId n2 = bld.and2(n1, b);      // level 1
  const NetId n3 = bld.xor2(n2, n1);     // level 2
  bld.or2(n3, a);                        // level 3
  const netlist::BoundDesign bd(nl, ctx.lib);
  const netlist::Levelization lv = netlist::levelize(bd);
  ASSERT_EQ(lv.order.size(), 4u);
  ASSERT_EQ(lv.levels(), 4u);
  // Every instance's combinational fanin must appear in an earlier level.
  std::vector<int> level_of(nl.instance_storage_size(), -1);
  for (std::size_t l = 0; l < lv.levels(); ++l)
    for (const InstId id : lv.level(l))
      level_of[static_cast<std::size_t>(id)] = static_cast<int>(l);
  for (const InstId id : lv.order) {
    for (const netlist::BoundConn& c : bd.conns(id)) {
      if (c.is_output) continue;
      const InstId drv = bd.driver_inst(c.net);
      if (drv < 0 || bd.is_seq_or_macro(drv)) continue;
      EXPECT_LT(level_of[static_cast<std::size_t>(drv)],
                level_of[static_cast<std::size_t>(id)]);
    }
  }
}

TEST(Levelize, CombinationalCycleDiagnosed) {
  Ctx ctx;
  Netlist nl("cyc");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_instance("i0", "INV_X1", {{"A", a}, {"Y", b}});
  nl.add_instance("i1", "INV_X1", {{"A", b}, {"Y", a}});
  const netlist::BoundDesign bd(nl, ctx.lib);
  try {
    netlist::levelize(bd);
    FAIL() << "combinational cycle not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonConvergence);
    EXPECT_NE(std::string(e.what()).find("i0"), std::string::npos);
  }
}

// ------------------------------------------------- differential fuzz

struct FuzzDesign {
  Netlist nl{"fuzz"};
  NetId clk = kNoNet;
  std::vector<NetId> inputs;
  std::vector<NetId> watch;  // every net both engines must agree on
};

/// A random mixed combinational/sequential netlist over every cell class
/// the kernel evaluates: the builder's leaf gates, muxes, ties, and
/// DFF/DFFE registers feeding back into the gate pool.
FuzzDesign make_fuzz_design(Rng& rng) {
  FuzzDesign d;
  d.clk = d.nl.add_net("clk");
  d.nl.set_clock(d.clk);
  d.nl.add_port("clk", netlist::PortDir::kInput, d.clk);
  const int n_in = 4 + static_cast<int>(rng.below(4));
  for (int i = 0; i < n_in; ++i) {
    const NetId n = d.nl.add_net("in" + std::to_string(i));
    d.nl.add_port("in" + std::to_string(i), netlist::PortDir::kInput, n);
    d.inputs.push_back(n);
    d.watch.push_back(n);
  }
  Builder b(d.nl, "fz");
  std::vector<NetId> pool = d.inputs;
  const auto pick = [&] { return pool[rng.below(pool.size())]; };
  const int n_ops = 24 + static_cast<int>(rng.below(24));
  for (int i = 0; i < n_ops; ++i) {
    NetId y = kNoNet;
    switch (rng.below(12)) {
      case 0: y = b.inv(pick()); break;
      case 1: y = b.buf(pick()); break;
      case 2: y = b.nand2(pick(), pick()); break;
      case 3: y = b.nor2(pick(), pick()); break;
      case 4: y = b.and2(pick(), pick()); break;
      case 5: y = b.or2(pick(), pick()); break;
      case 6: y = b.xor2(pick(), pick()); break;
      case 7: y = b.xnor2(pick(), pick()); break;
      case 8: y = b.mux2(pick(), pick(), pick()); break;
      case 9: y = rng.chance(0.5) ? b.tie0() : b.tie1(); break;
      default: {
        const NetId en = rng.chance(0.5) ? pick() : kNoNet;
        y = b.registers({pick()}, d.clk, en)[0];
        break;
      }
    }
    pool.push_back(y);
    d.watch.push_back(y);
  }
  d.nl.add_port("out", netlist::PortDir::kOutput, pool.back());
  return d;
}

TEST(Fuzz, RandomNetlistsMatchScalarEngineOnEveryLane) {
  Ctx ctx;
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const FuzzDesign d = make_fuzz_design(rng);
    const netlist::BoundDesign bd(d.nl, ctx.lib);
    const BatchProgram prog(bd, ctx.cells);
    BatchSim batch(prog);

    // 64 scalar engines, one per lane, driven with per-lane stimulus.
    std::vector<std::unique_ptr<netlist::Simulator>> scalar;
    for (int l = 0; l < kLanes; ++l)
      scalar.push_back(
          std::make_unique<netlist::Simulator>(d.nl, ctx.cells));

    const int cycles = 8;
    for (int c = 0; c < cycles; ++c) {
      for (const NetId in : d.inputs) {
        const std::uint64_t plane = rng.next_u64();
        batch.set_input_lanes(in, plane);
        for (int l = 0; l < kLanes; ++l)
          scalar[static_cast<std::size_t>(l)]->set_input(in,
                                                         (plane >> l) & 1);
      }
      batch.settle();
      batch.clock_edge();
      for (int l = 0; l < kLanes; ++l) {
        scalar[static_cast<std::size_t>(l)]->settle();
        scalar[static_cast<std::size_t>(l)]->clock_edge();
      }
      for (const NetId n : d.watch)
        for (int l = 0; l < kLanes; ++l)
          ASSERT_EQ(batch.lane_value(n, l),
                    scalar[static_cast<std::size_t>(l)]->value(n))
              << "trial " << trial << " cycle " << c << " net "
              << d.nl.net_name(n) << " lane " << l;
    }
  }
}

/// X-pessimism consistency: the event engine powered up in X (hardware
/// honest) may only disagree with the two-valued zero-init lanes by
/// reporting X. Wherever its 3-valued propagation resolves to a definite
/// value, that value holds for *every* power-up state — including the
/// all-zeros one the bit-plane kernel models — so it must match lane 0.
TEST(Fuzz, EventEngineDefiniteValuesMatchLanesUnderXInit) {
  Ctx ctx;
  Rng rng(77);
  const FuzzDesign d = make_fuzz_design(rng);
  const netlist::BoundDesign bd(d.nl, ctx.lib);
  const BatchProgram prog(bd, ctx.cells);
  BatchSim batch(prog);
  const evsim::TimingAnnotation ann =
      evsim::annotate_delays(d.nl, ctx.lib, ctx.cells);
  evsim::EvsimOptions opt;  // quiesce mode, x_init = true
  evsim::EventSimulator ev(d.nl, ann, opt);

  int definite_checked = 0;
  for (int c = 0; c < 8; ++c) {
    for (const NetId in : d.inputs) {
      const bool v = rng.chance(0.5);
      batch.set_input(in, v);
      ev.set_input(in, v);
    }
    batch.settle();
    batch.clock_edge();
    ev.cycle();
    for (const NetId n : d.watch) {
      const evsim::Logic lv = ev.value(n);
      if (lv == evsim::Logic::kX) continue;
      ++definite_checked;
      ASSERT_EQ(lv == evsim::Logic::k1, batch.lane_value(n, 0))
          << "cycle " << c << " net " << d.nl.net_name(n);
    }
  }
  EXPECT_GT(definite_checked, 0);
}

// ----------------------------------------- lane-wise SRAM/CAM banks

struct BankHarness {
  explicit BankHarness(liberty::Library l) : lib(std::move(l)) {}
  Netlist nl{"bankh"};
  liberty::Library lib;
  NetId clk = kNoNet;
  std::vector<NetId> wwl, rwl, wdata, sdata, dout;
  NetId match = kNoNet;
  InstId bank = -1;
  int rows = 0, bits = 0;
};

/// A bank macro with its wordlines and data pins wired straight to ports,
/// so tests can drive arbitrary (including multi-hot) WWL/RWL patterns
/// that the real decoder never produces. A CAM has SDATA and MATCH in
/// place of the read wordlines.
BankHarness make_bank_harness(const Ctx& ctx, int rows, int bits,
                              bool cam = false) {
  BankHarness h(liberty::characterize_stdcell_library(ctx.cells));
  h.rows = rows;
  h.bits = bits;
  const brick::BrickSpec spec{
      cam ? tech::BitcellKind::kCamNor10T : tech::BitcellKind::kSram8T, rows,
      bits, 1};
  h.lib.add(brick::BrickCache::global().get(spec, ctx.process)->libcell);
  h.clk = h.nl.add_net("clk");
  h.nl.set_clock(h.clk);
  h.nl.add_port("clk", netlist::PortDir::kInput, h.clk);
  std::vector<netlist::Connection> conns{{"CK", h.clk}};
  // Each pin gets its own net, exported as a port of the same name.
  const auto wire = [&](const std::string& base, int width,
                        netlist::PortDir dir) {
    std::vector<NetId> bus = h.nl.make_bus(base, width);
    for (int i = 0; i < width; ++i) {
      const std::string pin = base + "[" + std::to_string(i) + "]";
      h.nl.add_port(pin, dir, bus[static_cast<std::size_t>(i)]);
      conns.push_back({pin, bus[static_cast<std::size_t>(i)]});
    }
    return bus;
  };
  h.wwl = wire("WWL", rows, netlist::PortDir::kInput);
  h.wdata = wire("WDATA", bits, netlist::PortDir::kInput);
  h.dout = wire("DO", bits, netlist::PortDir::kOutput);
  if (cam) {
    h.sdata = wire("SDATA", bits, netlist::PortDir::kInput);
    h.match = h.nl.add_net("MATCH");
    h.nl.add_port("MATCH", netlist::PortDir::kOutput, h.match);
    conns.push_back({"MATCH", h.match});
  } else {
    h.rwl = wire("RWL", rows, netlist::PortDir::kInput);
  }
  h.bank = h.nl.add_instance("bank0", spec.name(), std::move(conns));
  return h;
}

// Independent per-lane references for the bank semantics: one plain word
// per row, written from the data sheet rather than from the plane models,
// so a fault common to every lane of SramBankModel/CamBankModel (and so to
// the scalar runs too) still shows up.

/// Lane `lane` of a bus given as one plane per bit.
std::uint64_t lane_word(const std::vector<std::uint64_t>& planes, int lane) {
  std::uint64_t w = 0;
  for (std::size_t j = 0; j < planes.size(); ++j)
    w |= ((planes[j] >> lane) & 1) << j;
  return w;
}

/// One lane of a 1R1W SRAM bank: every hot write row latches WDATA; a read
/// returns the AND of the hot read rows (precharged bitlines) and leaves
/// DO alone when no row is read; the SECDED flags are sticky.
struct RefSramLane {
  std::vector<std::uint64_t> word;
  int bits;
  int data_bits;
  std::uint64_t dout = 0;
  bool read_once = false;
  bool corrected = false, due = false;

  RefSramLane(int rows, int b, int d)
      : word(static_cast<std::size_t>(rows), 0), bits(b), data_bits(d) {}

  void clock(std::uint64_t wwl, std::uint64_t wdata, std::uint64_t rwl) {
    for (std::size_t r = 0; r < word.size(); ++r)
      if ((wwl >> r) & 1) word[r] = wdata;
    if (rwl == 0) return;
    std::uint64_t w = (std::uint64_t{1} << bits) - 1;
    for (std::size_t r = 0; r < word.size(); ++r)
      if ((rwl >> r) & 1) w &= word[r];
    dout = w;
    read_once = true;
    if (data_bits > 0) {
      const fault::SecdedDecode d = fault::secded_decode(w, data_bits);
      corrected = corrected || d.corrected;
      due = due || d.uncorrectable;
    }
  }
};

/// One lane of a CAM bank: writes store and validate; a search hits the
/// lowest valid row holding the key, with optional match lines stuck low
/// (never hit) or high (always hit); DO is 0 on a miss.
struct RefCamLane {
  std::vector<std::uint64_t> word;
  std::vector<bool> valid;
  int stuck_low = -1, stuck_high = -1;
  bool match = false;
  std::uint64_t dout = 0;

  explicit RefCamLane(int rows)
      : word(static_cast<std::size_t>(rows), 0),
        valid(static_cast<std::size_t>(rows), false) {}

  void clock(std::uint64_t wwl, std::uint64_t wdata, std::uint64_t key) {
    for (std::size_t r = 0; r < word.size(); ++r)
      if ((wwl >> r) & 1) {
        word[r] = wdata;
        valid[r] = true;
      }
    match = false;
    dout = 0;
    for (std::size_t r = 0; r < word.size(); ++r) {
      const int row = static_cast<int>(r);
      const bool hit = row == stuck_high ||
                       (row != stuck_low && valid[r] && word[r] == key);
      if (hit) {
        match = true;
        dout = r;
        return;
      }
    }
  }
};

TEST(Banks, MultiHotWordlinesMatchScalarModelOnEveryLane) {
  Ctx ctx;
  const int rows = 8, bits = 6;
  const BankHarness h = make_bank_harness(ctx, rows, bits);
  const netlist::BoundDesign bd(h.nl, h.lib);
  const BatchProgram prog(bd, ctx.cells);

  // Plain banks, then SECDED banks: with two payload bits the 6-bit word
  // is exactly one SECDED codeword, so the random multi-hot composites
  // mix clean, corrected and uncorrectable reads.
  ASSERT_EQ(fault::secded_total_bits(2), bits);
  for (const int data_bits : {0, 2}) {
    BatchSim batch(prog);
    auto bmodel = std::make_shared<lim::SramBankModel>(rows, bits, data_bits);
    batch.attach(h.bank, bmodel);

    std::vector<std::unique_ptr<netlist::Simulator>> scalar;
    std::vector<std::shared_ptr<lim::SramBankModel>> smodel;
    for (int l = 0; l < kLanes; ++l) {
      scalar.push_back(std::make_unique<netlist::Simulator>(h.nl, ctx.cells));
      smodel.push_back(
          std::make_shared<lim::SramBankModel>(rows, bits, data_bits));
      scalar.back()->attach(h.bank, smodel.back());
    }

    std::vector<RefSramLane> ref(kLanes, RefSramLane(rows, bits, data_bits));

    // Dense random wordline planes: with eight rows at p=0.5 per lane,
    // nearly every lane sees multi-hot reads and destructive multi-writes
    // every cycle — the semantics the one-hot decoder never exercises.
    Rng rng(5);
    bool mixed_flags = false;  // some cycle split the lanes' SECDED flags
    for (int c = 0; c < 24; ++c) {
      const auto drive = [&](const std::vector<NetId>& bus) {
        std::vector<std::uint64_t> planes;
        for (const NetId n : bus) {
          const std::uint64_t plane = rng.next_u64();
          planes.push_back(plane);
          batch.set_input_lanes(n, plane);
          for (int l = 0; l < kLanes; ++l)
            scalar[static_cast<std::size_t>(l)]->set_input(n,
                                                           (plane >> l) & 1);
        }
        return planes;
      };
      const auto wwl = drive(h.wwl);
      const auto rwl = drive(h.rwl);
      const auto wdata = drive(h.wdata);
      batch.settle();
      batch.clock_edge();
      for (int l = 0; l < kLanes; ++l) {
        const auto lane = static_cast<std::size_t>(l);
        scalar[lane]->settle();
        scalar[lane]->clock_edge();
        ASSERT_EQ(batch.bus_value(h.dout, l), scalar[lane]->bus_value(h.dout))
            << "data_bits " << data_bits << " cycle " << c << " lane " << l;
        RefSramLane& want = ref[lane];
        want.clock(lane_word(wwl, l), lane_word(wdata, l), lane_word(rwl, l));
        if (want.read_once) {
          ASSERT_EQ(batch.bus_value(h.dout, l), want.dout)
              << "data_bits " << data_bits << " cycle " << c << " lane " << l;
        }
        ASSERT_EQ((bmodel->corrected_lanes() >> l) & 1, want.corrected ? 1u : 0u)
            << "data_bits " << data_bits << " cycle " << c << " lane " << l;
        ASSERT_EQ((bmodel->due_lanes() >> l) & 1, want.due ? 1u : 0u)
            << "data_bits " << data_bits << " cycle " << c << " lane " << l;
        // Sticky SECDED observations agree lane by lane, every cycle.
        ASSERT_EQ((bmodel->corrected_lanes() >> l) & 1,
                  smodel[lane]->corrected_lanes())
            << "data_bits " << data_bits << " cycle " << c << " lane " << l;
        ASSERT_EQ((bmodel->due_lanes() >> l) & 1, smodel[lane]->due_lanes())
            << "data_bits " << data_bits << " cycle " << c << " lane " << l;
      }
      for (const std::uint64_t m : {bmodel->corrected_lanes(),
                                    bmodel->due_lanes()})
        mixed_flags = mixed_flags || (m != 0 && m != kAllLanes);
    }
    // Final storage state matches word-for-word in every lane.
    for (int l = 0; l < kLanes; ++l)
      for (int r = 0; r < rows; ++r) {
        const auto lane = static_cast<std::size_t>(l);
        ASSERT_EQ(bmodel->peek(l, r), smodel[lane]->peek(0, r))
            << "data_bits " << data_bits << " lane " << l << " row " << r;
        ASSERT_EQ(bmodel->peek(l, r), ref[lane].word[static_cast<std::size_t>(r)])
            << "data_bits " << data_bits << " lane " << l << " row " << r;
      }
    if (data_bits == 0) {
      EXPECT_EQ(bmodel->corrected_lanes() | bmodel->due_lanes(), 0u);
    } else {
      EXPECT_TRUE(mixed_flags) << "SECDED flags never told lanes apart";
    }
  }
}

TEST(Banks, CamSearchesMatchScalarModelOnEveryLane) {
  Ctx ctx;
  const int rows = 8, bits = 3;  // narrow keys, so searches often hit
  const BankHarness h = make_bank_harness(ctx, rows, bits, /*cam=*/true);
  const netlist::BoundDesign bd(h.nl, h.lib);
  const BatchProgram prog(bd, ctx.cells);
  BatchSim batch(prog);
  auto bmodel = std::make_shared<lim::CamBankModel>(rows, bits);
  batch.attach(h.bank, bmodel);

  // Two lanes also carry match-line faults: row 2 stuck low, row 6 stuck
  // high (so those lanes always hit, at row 6 at the latest).
  fault::ArrayGeometry geom;
  geom.rows = rows;
  geom.cols = bits;
  geom.cam = true;
  const fault::FaultMap faults(
      geom, {{fault::DefectKind::kMatchlineStuck0, 0, 2, 0, 0},
             {fault::DefectKind::kMatchlineStuck1, 0, 6, 0, 0}});
  const auto faulty = [](int l) { return l == 5 || l == 40; };

  // Every lane starts from its own stored words and valid flags; the
  // scalar run of that lane starts from the same state.
  Rng rng(9);
  std::vector<std::unique_ptr<netlist::Simulator>> scalar;
  std::vector<std::shared_ptr<lim::CamBankModel>> smodel;
  std::vector<RefCamLane> ref(kLanes, RefCamLane(rows));
  for (int l = 0; l < kLanes; ++l) {
    const auto lane = static_cast<std::size_t>(l);
    scalar.push_back(std::make_unique<netlist::Simulator>(h.nl, ctx.cells));
    smodel.push_back(std::make_shared<lim::CamBankModel>(rows, bits));
    scalar.back()->attach(h.bank, smodel.back());
    for (int r = 0; r < rows; ++r) {
      const std::uint64_t v = rng.below(std::uint64_t{1} << bits);
      const bool valid = rng.chance(0.5);
      bmodel->set_entry(l, r, v, valid);
      smodel.back()->set_entry(0, r, v, valid);
      ref[lane].word[static_cast<std::size_t>(r)] = v;
      ref[lane].valid[static_cast<std::size_t>(r)] = valid;
    }
    if (faulty(l)) {
      bmodel->set_lane_faults(l, faults, 0);
      smodel.back()->set_lane_faults(0, faults, 0);
      ref[lane].stuck_low = 2;
      ref[lane].stuck_high = 6;
    }
  }

  int hits = 0, misses = 0;
  for (int c = 0; c < 32; ++c) {
    const auto drive = [&](const std::vector<NetId>& bus, auto next_plane) {
      std::vector<std::uint64_t> planes;
      for (const NetId n : bus) {
        const std::uint64_t plane = next_plane();
        planes.push_back(plane);
        batch.set_input_lanes(n, plane);
        for (int l = 0; l < kLanes; ++l)
          scalar[static_cast<std::size_t>(l)]->set_input(n, (plane >> l) & 1);
      }
      return planes;
    };
    // Sparse random writes (each row hot in ~1/8 of the lanes, sometimes
    // several rows at once) and a fresh random search key per lane.
    const auto wwl = drive(h.wwl, [&] {
      return rng.next_u64() & rng.next_u64() & rng.next_u64();
    });
    const auto wdata = drive(h.wdata, [&] { return rng.next_u64(); });
    const auto key = drive(h.sdata, [&] { return rng.next_u64(); });
    batch.settle();
    batch.clock_edge();
    for (int l = 0; l < kLanes; ++l) {
      const auto lane = static_cast<std::size_t>(l);
      scalar[lane]->settle();
      scalar[lane]->clock_edge();
      const bool match = scalar[lane]->value(h.match);
      ASSERT_EQ(batch.lane_value(h.match, l), match)
          << "cycle " << c << " lane " << l;
      ASSERT_EQ(batch.bus_value(h.dout, l), scalar[lane]->bus_value(h.dout))
          << "cycle " << c << " lane " << l;
      RefCamLane& want = ref[lane];
      want.clock(lane_word(wwl, l), lane_word(wdata, l), lane_word(key, l));
      ASSERT_EQ(batch.lane_value(h.match, l), want.match)
          << "cycle " << c << " lane " << l;
      ASSERT_EQ(batch.bus_value(h.dout, l), want.dout)
          << "cycle " << c << " lane " << l;
      if (faulty(l)) {
        // The stuck-high row always hits; the stuck-low row never does.
        ASSERT_TRUE(match) << "cycle " << c << " lane " << l;
        ASSERT_LE(batch.bus_value(h.dout, l), 6u) << "cycle " << c;
        ASSERT_NE(batch.bus_value(h.dout, l), 2u) << "cycle " << c;
      }
      (match ? hits : misses) += 1;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  // Final stored words and validity agree in every lane.
  for (int l = 0; l < kLanes; ++l)
    for (int r = 0; r < rows; ++r) {
      const auto lane = static_cast<std::size_t>(l);
      ASSERT_EQ(bmodel->peek(l, r), smodel[lane]->peek(0, r))
          << "lane " << l << " row " << r;
      ASSERT_EQ(bmodel->is_valid(l, r), smodel[lane]->is_valid(0, r))
          << "lane " << l << " row " << r;
      ASSERT_EQ(bmodel->peek(l, r), ref[lane].word[static_cast<std::size_t>(r)])
          << "lane " << l << " row " << r;
      ASSERT_EQ(bmodel->is_valid(l, r), ref[lane].valid[static_cast<std::size_t>(r)])
          << "lane " << l << " row " << r;
    }
}

TEST(Banks, PerLanePeekPokeFlipAreIsolated) {
  const int rows = 4, bits = 5;
  lim::SramBankModel bank(rows, bits);

  EXPECT_EQ(bank.state_rows(), rows);
  EXPECT_EQ(bank.state_bits(), bits);
  bank.poke(3, 2, 0b10110);
  EXPECT_EQ(bank.peek(3, 2), 0b10110u);
  for (int l = 0; l < kLanes; ++l) {
    if (l != 3) {
      EXPECT_EQ(bank.peek(l, 2), 0u) << "lane " << l;
    }
  }
  // Values are masked to the word width.
  bank.poke(1, 0, ~std::uint64_t{0});
  EXPECT_EQ(bank.peek(1, 0), 0b11111u);
  // flip_state_bits XORs one lane only.
  bank.flip_state_bits(3, 2, 0b00011);
  EXPECT_EQ(bank.peek(3, 2), 0b10101u);
  EXPECT_EQ(bank.peek(4, 2), 0u);
  // Out-of-range coordinates are rejected.
  EXPECT_THROW(bank.peek(0, rows), Error);
  EXPECT_THROW(bank.poke(kLanes, 0, 0), Error);
}

TEST(Flops, FlipFlopTouchesOnlyMaskedLanes) {
  Ctx ctx;
  Netlist nl("ff");
  const NetId clk = nl.add_net("clk");
  nl.set_clock(clk);
  nl.add_port("clk", netlist::PortDir::kInput, clk);
  const NetId d = nl.add_net("d");
  nl.add_port("d", netlist::PortDir::kInput, d);
  Builder b(nl, "f");
  const NetId q = b.registers({d}, clk)[0];
  const NetId y = b.inv(q);
  const netlist::BoundDesign bd(nl, ctx.lib);
  const BatchProgram prog(bd, ctx.cells);
  ASSERT_EQ(prog.flop_count(), 1u);

  // Find the flop instance via the program's own index.
  InstId flop = -1;
  for (std::size_t i = 0; i < bd.instance_count(); ++i)
    if (prog.flop_index(static_cast<InstId>(i)) == 0)
      flop = static_cast<InstId>(i);
  ASSERT_GE(flop, 0);

  BatchSim sim(prog);
  sim.set_input(d, false);
  sim.settle();
  sim.clock_edge();
  EXPECT_EQ(sim.plane(q), 0u);
  const std::uint64_t mask = (std::uint64_t{1} << 7) | (std::uint64_t{1} << 42);
  sim.flip_flop(flop, mask);
  EXPECT_EQ(sim.plane(q), mask);
  sim.settle();
  EXPECT_EQ(sim.plane(y), ~mask);  // flip propagates downstream
  // The flipped state holds across an edge when D keeps its value... and
  // lane_broadcast isolates the divergent lanes against golden lane 0.
  EXPECT_EQ(sim.plane(q) ^ lane_broadcast(sim.plane(q), 0), mask);
  sim.clock_edge();
  EXPECT_EQ(sim.plane(q), 0u);  // D=0 recaptured everywhere
  // Non-flop instances are rejected.
  EXPECT_THROW(sim.flip_flop(flop == 0 ? 1 : 0, 1), Error);
}

}  // namespace
}  // namespace limsynth::bitsim
