#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace limsynth::place {

namespace {

using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

using Point = std::pair<double, double>;

/// Physical pin positions on placed macros, one per global conn id of each
/// macro conn (other entries unused): wordline pins climb the left edge
/// (their row's height), data pins spread along the top/bottom edges. This
/// is what makes a tall stacked bank's wordline routing long — the Fig. 4b
/// config-D decode penalty. Macros are fixed, so every position is
/// resolved once, before refinement.
std::vector<Point> macro_pin_positions(
    const netlist::BoundDesign& bd, const std::vector<MacroPlacement>& macros) {
  std::vector<Point> pos(bd.conn_count(), {0.0, 0.0});
  const netlist::PinBaseId rwl = bd.pin_base_id("RWL");
  const netlist::PinBaseId wwl = bd.pin_base_id("WWL");
  // Highest bus index per base on the macro at hand (0 when none).
  std::vector<int> max_index(bd.pin_base_count(), 0);
  for (const auto& m : macros) {
    const auto conns = bd.conns(m.inst);
    for (const auto& c : conns) {
      int& mi = max_index[static_cast<std::size_t>(bd.pin_base(c.pin))];
      mi = std::max(mi, bd.pin_bus_index(c.pin));
    }
    const layout::Rect& r = m.rect;
    // The brick stack runs along the macro's long axis; wordline pins
    // spread along it (their row's physical position), data pins sit at
    // the periphery end of the stack.
    const bool horizontal = r.width() >= r.height();
    std::uint32_t g = bd.conn_begin(m.inst);
    for (const auto& c : conns) {
      const netlist::PinBaseId base = bd.pin_base(c.pin);
      const int index = bd.pin_bus_index(c.pin);
      const int top = max_index[static_cast<std::size_t>(base)];
      Point& p = pos[g++];
      if (index < 0) {
        p = {r.x0, r.y0};  // CK and scalar pins: corner
        continue;
      }
      const double frac =
          top == 0 ? 0.5 : (static_cast<double>(index) + 0.5) / (top + 1);
      if (base == rwl || base == wwl) {
        p = horizontal ? Point{r.x0 + frac * r.width(), r.y0}
                       : Point{r.x0, r.y0 + frac * r.height()};
      } else {
        // DO/MATCH/WDATA/SDATA: at the stack's periphery end, spread
        // across the short dimension.
        p = horizontal ? Point{r.x0, r.y0 + frac * r.height()}
                       : Point{r.x0 + frac * r.width(), r.y0};
      }
    }
    for (const auto& c : conns)
      max_index[static_cast<std::size_t>(bd.pin_base(c.pin))] = 0;
  }
  return pos;
}

}  // namespace

Floorplan place_design(const netlist::BoundDesign& bd,
                       const tech::Process& process,
                       const PlaceOptions& opt) {
  bd.check_fresh();
  const Netlist& nl = bd.netlist();
  Floorplan fp;
  const std::size_t n_inst = nl.instance_storage_size();
  fp.positions.assign(n_inst, {0.0, 0.0});

  // ---------------------------------------------------------- inventory
  // Macros may be rotated; the floorplanner lays their long side along the
  // bottom band to keep the block close to square.
  std::vector<InstId> macro_ids;
  std::vector<char> is_macro(n_inst, 0);
  std::vector<std::pair<double, double>> macro_wh;  // placed (w, h)
  double macro_row_width = 0.0, macro_max_height = 0.0;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto id = static_cast<InstId>(i);
    if (!nl.is_live(id)) continue;
    const liberty::LibCell& cell = bd.cell(id);
    if (cell.is_macro) {
      macro_ids.push_back(id);
      is_macro[i] = 1;
      fp.macro_area += cell.area;
      double w = cell.width > 0 ? cell.width : std::sqrt(cell.area);
      double h = cell.height > 0 ? cell.height : std::sqrt(cell.area);
      if (h > w) std::swap(w, h);  // rotate: long side horizontal
      macro_wh.emplace_back(w, h);
      macro_row_width += w + 2.0 * opt.macro_halo;
      macro_max_height = std::max(macro_max_height, h);
    } else {
      fp.cell_area += cell.area;
    }
  }

  // --------------------------------------------------------- floorplan
  const double logic_area = fp.cell_area / opt.utilization;
  double width = std::max(macro_row_width, std::sqrt(std::max(logic_area, 1e-12)));
  const double logic_height = logic_area / width;
  const double macro_band =
      macro_ids.empty() ? 0.0 : macro_max_height + 2.0 * opt.macro_halo;
  fp.width = width;
  fp.height = macro_band + logic_height;
  fp.area = fp.width * fp.height;
  fp.logic_region =
      layout::Rect{0.0, macro_band, fp.width, fp.height};

  // Macros across the bottom band, spread evenly.
  double cursor = opt.macro_halo;
  const double spread =
      macro_ids.empty()
          ? 0.0
          : std::max(0.0, (fp.width - macro_row_width) /
                              static_cast<double>(macro_ids.size()));
  for (std::size_t m = 0; m < macro_ids.size(); ++m) {
    const InstId id = macro_ids[m];
    const auto [w, h] = macro_wh[m];
    fp.macros.push_back({id, layout::Rect{cursor, opt.macro_halo, cursor + w,
                                          opt.macro_halo + h}});
    fp.positions[static_cast<std::size_t>(id)] = {cursor + w / 2.0,
                                                  opt.macro_halo + h / 2.0};
    cursor += w + 2.0 * opt.macro_halo + spread;
  }

  // ------------------------------------------------ barycentric placement
  // Fixed anchors: macro pins (macro center), primary inputs on the left
  // edge, outputs on the right edge.
  const double cx = fp.width / 2.0;
  const double cy = macro_band + logic_height / 2.0;
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (nl.is_live(static_cast<InstId>(i)) && !is_macro[i])
      fp.positions[i] = {cx, cy};
  }

  // Port anchor positions.
  std::vector<std::pair<double, double>> port_pos(nl.nets().size(),
                                                  {-1.0, -1.0});
  {
    int in_count = 0, out_count = 0;
    for (const auto& p : nl.ports())
      (p.dir == netlist::PortDir::kInput ? in_count : out_count)++;
    int in_i = 0, out_i = 0;
    for (const auto& p : nl.ports()) {
      if (p.dir == netlist::PortDir::kInput) {
        port_pos[static_cast<std::size_t>(p.net)] = {
            0.0, fp.height * (in_i + 1.0) / (in_count + 1.0)};
        ++in_i;
      } else {
        port_pos[static_cast<std::size_t>(p.net)] = {
            fp.width, fp.height * (out_i + 1.0) / (out_count + 1.0)};
        ++out_i;
      }
    }
  }

  // Endpoint positions by global conn id: a macro conn's fixed pin, or the
  // current position of a logic cell.
  const std::vector<Point> macro_pin_pos = macro_pin_positions(bd, fp.macros);
  auto endpoint_pos = [&](InstId inst, std::uint32_t conn) -> const Point& {
    return is_macro[static_cast<std::size_t>(inst)]
               ? macro_pin_pos[conn]
               : fp.positions[static_cast<std::size_t>(inst)];
  };

  const NetId clock = nl.clock();
  for (int iter = 0; iter < opt.refine_iterations; ++iter) {
    for (std::size_t i = 0; i < n_inst; ++i) {
      const auto id = static_cast<InstId>(i);
      if (!nl.is_live(id)) continue;
      if (is_macro[i]) continue;  // fixed
      double sx = 0.0, sy = 0.0;
      int n = 0;
      for (const auto& conn : bd.conns(id)) {
        if (conn.net == clock) continue;  // ideal clock: no pull
        // Pull toward the driver and all other sinks of each connected net.
        const auto& drv = bd.driver_ref(conn.net);
        if (drv.inst >= 0 && drv.inst != id) {
          const auto [px, py] = endpoint_pos(drv.inst, drv.conn);
          sx += px;
          sy += py;
          ++n;
        }
        for (const auto& sink : bd.sinks(conn.net)) {
          if (sink.inst == id) continue;
          const auto [px, py] = endpoint_pos(sink.inst, sink.conn);
          sx += px;
          sy += py;
          ++n;
        }
        const auto& pp = port_pos[static_cast<std::size_t>(conn.net)];
        if (pp.first >= 0.0) {
          sx += pp.first;
          sy += pp.second;
          ++n;
        }
      }
      if (n == 0) continue;
      double nx = sx / n, ny = sy / n;
      // Clamp into the logic region.
      nx = std::clamp(nx, fp.logic_region.x0, fp.logic_region.x1);
      ny = std::clamp(ny, fp.logic_region.y0, fp.logic_region.y1);
      fp.positions[i] = {nx, ny};
    }
  }

  // ----------------------------------------------------------- extraction
  fp.parasitics.assign(nl.nets().size(), NetParasitics{});
  for (NetId net = 0; net < static_cast<NetId>(nl.nets().size()); ++net) {
    double x0 = 1e9, x1 = -1e9, y0 = 1e9, y1 = -1e9;
    int endpoints = 0;
    auto touch = [&](double x, double y) {
      x0 = std::min(x0, x);
      x1 = std::max(x1, x);
      y0 = std::min(y0, y);
      y1 = std::max(y1, y);
      ++endpoints;
    };
    const auto& drv = bd.driver_ref(net);
    if (drv.inst >= 0) {
      const auto [px, py] = endpoint_pos(drv.inst, drv.conn);
      touch(px, py);
    }
    for (const auto& sink : bd.sinks(net)) {
      const auto [px, py] = endpoint_pos(sink.inst, sink.conn);
      touch(px, py);
    }
    const auto& pp = port_pos[static_cast<std::size_t>(net)];
    if (pp.first >= 0.0) touch(pp.first, pp.second);

    auto& para = fp.parasitics[static_cast<std::size_t>(net)];
    if (endpoints >= 2) {
      para.length = (x1 - x0) + (y1 - y0);
      // Minimum escape length even for abutting cells.
      para.length = std::max(para.length, 2e-6);
      para.wire_cap = process.c_wire * para.length;
      para.wire_res = process.r_wire * para.length;
      fp.total_wirelength += para.length;
    }
  }
  return fp;
}

Floorplan place_design(const Netlist& nl, const liberty::Library& lib,
                       const tech::Process& process,
                       const PlaceOptions& opt) {
  return place_design(netlist::BoundDesign(nl, lib), process, opt);
}

}  // namespace limsynth::place
