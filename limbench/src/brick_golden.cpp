// brick_golden: Table 1's estimator-vs-golden brick characterization.
//
// One item compiles the Table 1 8T 16x10 brick at stack 4 on the item's
// own Monte-Carlo chip sample, runs the analytic estimator, and measures
// it with the golden switch-level transient (read and write). The check
// holds the estimator to the golden reference; the traced split times the
// four calls separately and must reproduce every number.
#include <cmath>

#include "brick/brick.hpp"
#include "brick/estimator.hpp"
#include "brick/golden.hpp"
#include "harness.hpp"
#include "util/units.hpp"

namespace limbench {
namespace {

using namespace limsynth;

// Estimator-vs-golden agreement the check requires. The paper reports
// 2-7% on the read critical path and 0-4% on read energy against SPICE.
constexpr double kMaxReadDelayErrPct = 15.0;
constexpr double kMaxReadEnergyErrPct = 15.0;

const brick::BrickSpec kSpec{tech::BitcellKind::kSram8T, 16, 10, 4};

struct Result {
  brick::BrickEstimate est;
  brick::GoldenMeasurement read;
  brick::GoldenMeasurement write;

  void digest(Digest& d) const {
    for (double v : {est.read_delay, est.write_delay, est.read_energy,
                     est.write_energy, est.leakage, est.min_cycle,
                     est.bank_area, read.delay, read.energy, write.delay,
                     write.energy})
      d.add(v);
  }
};

class BrickGolden final : public Workload {
 public:
  void setup() override { base_ = tech::default_process(); }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    process_ = base_.monte_carlo_chip(rng);
  }

  void run() override {
    const brick::Brick b = brick::compile_brick(kSpec, process_);
    result_.est = brick::estimate_brick(b);
    result_.read = brick::golden_read(b);
    result_.write = brick::golden_write(b);
  }

  bool check() override {
    const Result& r = result_;
    auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    if (!positive(r.read.delay) || !positive(r.read.energy) ||
        !positive(r.write.delay) || !positive(r.write.energy) ||
        !positive(r.est.read_delay) || !positive(r.est.read_energy))
      return false;
    return std::fabs(units::percent_error(r.est.read_delay, r.read.delay)) <=
               kMaxReadDelayErrPct &&
           std::fabs(units::percent_error(r.est.read_energy, r.read.energy)) <=
               kMaxReadEnergyErrPct;
  }

  void digest(Digest& d) const override {
    d.add(result_.read.delay);
    d.add(result_.read.energy);
    d.add(result_.write.delay);
    d.add(result_.write.energy);
  }

  void corrupt() override { result_.read.delay *= 2.0; }

  void traced(Spans& s) override {
    Result& r = split_;
    const brick::Brick b = s.time("brick.compile_ms", [&] {
      return brick::compile_brick(kSpec, process_);
    });
    r.est = s.time("brick.estimate_ms",
                   [&] { return brick::estimate_brick(b); });
    r.read = s.time("circuit.golden_read_ms",
                    [&] { return brick::golden_read(b); });
    r.write = s.time("circuit.golden_write_ms",
                     [&] { return brick::golden_write(b); });
    s.set_count("brick.read_delay_err_pct",
                std::fabs(units::percent_error(r.est.read_delay,
                                               r.read.delay)));
  }

  bool split_matches() const override {
    Digest split, whole;
    split_.digest(split);
    result_.digest(whole);
    return split.value() == whole.value();
  }

  std::vector<std::pair<std::string, std::string>> layer_metrics()
      const override {
    return {{"brick.compile_ms", "ms"},
            {"brick.estimate_ms", "ms"},
            {"circuit.golden_read_ms", "ms"},
            {"circuit.golden_write_ms", "ms"},
            {"brick.read_delay_err_pct", "%"}};
  }

 private:
  tech::Process base_;
  tech::Process process_;
  Result result_;
  Result split_;
};

}  // namespace

std::unique_ptr<Workload> make_brick_golden() {
  return std::make_unique<BrickGolden>();
}

}  // namespace limbench
