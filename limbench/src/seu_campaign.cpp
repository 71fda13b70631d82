// seu_campaign: one whole soft-error injection campaign per item.
//
// The set-up builds the SEU rig once, as `limsynth seu 64 10 1 16 --ecc`
// does: a 64x10 SRAM in one bank of 16-word bricks with SECDED,
// synthesized and timing-annotated for the event engine. One item is
// seu::run_campaign of 256 samples with one worker (the CLI default) over
// a 40-cycle seed-drawn stimulus trace and its own campaign seed. The
// traced split replays the campaign's phases — golden replay, bit-plane
// kernel bind, batched passes, scalar SET-pulse runs — and must reproduce
// every sample record.
#include <memory>

#include "brick/cache.hpp"
#include "harness.hpp"
#include "seu/batch.hpp"
#include "seu/campaign.hpp"
#include "synth/synth.hpp"

namespace limbench {
namespace {

using namespace limsynth;

constexpr int kSamples = 256;
constexpr int kTraceCycles = 40;
// Batched samples re-classified on the scalar event engine per item.
constexpr int kCrossChecks = 4;

lim::SramConfig rig_config() {
  lim::SramConfig cfg{64, 10, 1, 16};
  cfg.ecc = true;
  return cfg;
}

bool same_record(const seu::SampleRecord& a, const seu::SampleRecord& b) {
  return a.sample == b.sample && a.kind == b.kind && a.site == b.site &&
         a.cycle == b.cycle && a.outcome == b.outcome && a.latent == b.latent &&
         a.detail == b.detail;
}

class SeuCampaign final : public Workload {
 public:
  void setup() override { build_rig(nullptr); }

  void traced_setup(Spans& s) override { build_rig(&s); }

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    auto mask = [](std::size_t bits) {
      return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    };
    const lim::SramDesign& d = *design_;
    trace_ = evsim::StimulusTrace{};
    for (int c = 0; c < kTraceCycles; ++c) {
      trace_.set_bus(c, d.raddr, rng.next_u64() & mask(d.raddr.size()));
      trace_.set_bus(c, d.waddr, rng.next_u64() & mask(d.waddr.size()));
      trace_.set_bus(c, d.wdata, rng.next_u64() & mask(d.wdata.size()));
      trace_.set(c, d.wen, rng.chance(0.5));
    }
    options_ = seu::CampaignOptions{};
    options_.samples = kSamples;
    options_.seed = rng.next_u64();
    options_.workers = 1;
  }

  void run() override {
    result_ = seu::run_campaign(rig_, process_, options_);
  }

  bool check() override {
    const seu::CampaignResult& r = result_;
    if (!r.complete() || r.timed_out || r.interrupted) return false;
    std::uint64_t tally[seu::kOutcomes] = {};
    for (const seu::SampleRecord& rec : r.records) {
      if (rec.sample < 0 || rec.outcome == seu::Outcome::kHang) return false;
      ++tally[static_cast<int>(rec.outcome)];
      // SECDED corrects every single-bit upset of the array.
      if (rec.kind == seu::SiteKind::kMacroBit &&
          rec.outcome != seu::Outcome::kMasked &&
          rec.outcome != seu::Outcome::kCorrectedSecded)
        return false;
    }
    for (int o = 0; o < seu::kOutcomes; ++o)
      if (tally[o] != r.counts[o]) return false;

    // Independent engine: re-classify a few batched samples on the scalar
    // event engine and require the same records.
    const seu::SitePlan plan = seu::enumerate_sites(rig_);
    const seu::GoldenRun golden = seu::run_golden(rig_);
    Rng pick(options_.seed);
    int checked = 0;
    for (int tries = 0; checked < kCrossChecks && tries < 64; ++tries) {
      const int i = static_cast<int>(pick.below(kSamples));
      const seu::InjectionSpec spec = seu::plan_sample(rig_, plan, options_, i);
      if (spec.site.kind == seu::SiteKind::kSetPulse) continue;
      const seu::InjectionResult scalar =
          seu::run_injection(rig_, golden, spec);
      const seu::SampleRecord& rec = r.records[static_cast<std::size_t>(i)];
      if (scalar.outcome != rec.outcome || scalar.latent != rec.latent)
        return false;
      ++checked;
    }
    return checked == kCrossChecks;
  }

  void digest(Digest& d) const override {
    for (std::uint64_t c : result_.counts) d.add(c);
    d.add(result_.latent);
    for (const seu::StratumStats& st : result_.strata)
      for (std::uint64_t c : st.counts) d.add(c);
  }

  void corrupt() override {
    // A macro-bit upset that escaped SECDED.
    for (seu::SampleRecord& rec : result_.records) {
      if (rec.kind == seu::SiteKind::kMacroBit) {
        rec.outcome = seu::Outcome::kSdc;
        return;
      }
    }
  }

  void traced(Spans& s) override {
    // run_campaign's work units: macro-bit and flop samples in groups of
    // kBatchSamples for the kernel, SET pulses one at a time.
    struct Unit {
      std::vector<int> samples;
      std::vector<seu::InjectionSpec> specs;
      bool batched = false;
    };
    std::vector<Unit> units;
    s.time("seu.plan_ms", [&] {
      const seu::SitePlan plan = seu::enumerate_sites(rig_);
      Unit group;
      group.batched = true;
      for (int i = 0; i < kSamples; ++i) {
        seu::InjectionSpec spec = seu::plan_sample(rig_, plan, options_, i);
        if (spec.site.kind != seu::SiteKind::kSetPulse) {
          group.samples.push_back(i);
          group.specs.push_back(std::move(spec));
          if (static_cast<int>(group.samples.size()) == seu::kBatchSamples) {
            units.push_back(std::move(group));
            group = Unit{};
            group.batched = true;
          }
        } else {
          units.push_back(Unit{{i}, {std::move(spec)}, false});
        }
      }
      if (!group.samples.empty()) units.push_back(std::move(group));
    });
    const seu::GoldenRun golden =
        s.time("seu.golden_ms", [&] { return seu::run_golden(rig_); });
    const auto kernel = s.time("bitsim.bind_ms", [&] {
      return std::make_unique<seu::BatchKernel>(rig_);
    });

    std::vector<seu::SampleRecord>& records = split_;
    records.assign(kSamples, seu::SampleRecord{});
    double batched = 0.0, scalar = 0.0;
    for (const Unit& unit : units) {
      std::vector<seu::InjectionResult> runs;
      if (unit.batched) {
        s.time("bitsim.batch_ms", [&] {
          try {
            runs = seu::run_batch(rig_, *kernel, golden, unit.specs);
          } catch (const Error&) {
            // The kernel bailed: the campaign replays the group scalar.
            runs.clear();
            for (const seu::InjectionSpec& spec : unit.specs)
              runs.push_back(seu::run_injection(rig_, golden, spec));
            scalar += static_cast<double>(unit.specs.size());
            return;
          }
          batched += static_cast<double>(unit.specs.size());
        });
      } else {
        s.time("evsim.set_fallback_ms", [&] {
          runs.push_back(seu::run_injection(rig_, golden, unit.specs[0]));
        });
        scalar += 1.0;
        s.add_count("evsim.set_samples", 1.0);
      }
      for (std::size_t k = 0; k < unit.samples.size(); ++k) {
        seu::SampleRecord& rec =
            records[static_cast<std::size_t>(unit.samples[k])];
        rec.sample = unit.samples[k];
        rec.kind = unit.specs[k].site.kind;
        rec.site = unit.specs[k].site.describe(design_->nl);
        rec.cycle = unit.specs[k].cycle;
        rec.outcome = runs[k].outcome;
        rec.latent = runs[k].latent;
        rec.detail = runs[k].detail;
      }
    }
    s.set_count("seu.samples_batched", batched);
    s.set_count("seu.samples_scalar", scalar);
  }

  bool split_matches() const override {
    if (result_.records.size() != split_.size()) return false;
    for (std::size_t i = 0; i < split_.size(); ++i)
      if (!same_record(split_[i], result_.records[i])) return false;
    return true;
  }

  std::vector<std::pair<std::string, std::string>> layer_metrics()
      const override {
    return {{"evsim.annotate_ms", "ms"},   {"seu.plan_ms", "ms"},
            {"seu.golden_ms", "ms"},       {"bitsim.bind_ms", "ms"},
            {"bitsim.batch_ms", "ms"},     {"evsim.set_fallback_ms", "ms"},
            {"evsim.ms_per_set_sample", "ms"},
            {"seu.samples_batched", "count"},
            {"seu.samples_scalar", "count"},
            {"seu.batched_share", "ratio"}};
  }

  std::map<std::string, double> summarize(
      const Spans& totals,
      const std::map<std::string, std::vector<double>>& counts,
      std::size_t items) const override {
    std::map<std::string, double> out =
        Workload::summarize(totals, counts, items);
    // The rig is annotated once per traced run, not once per item.
    out["evsim.annotate_ms"] = totals.ms().at("evsim.annotate_ms");
    out["evsim.ms_per_set_sample"] =
        totals.ms().at("evsim.set_fallback_ms") /
        totals.counts().at("evsim.set_samples");
    const double b = totals.counts().at("seu.samples_batched");
    const double sc = totals.counts().at("seu.samples_scalar");
    out["seu.batched_share"] = b / (b + sc);
    return out;
  }

 private:
  // The CLI's rig: elaborate, synthesize, annotate. With `spans`, the
  // annotation is charged to its layer.
  void build_rig(Spans* spans) {
    brick::BrickCache::global().clear();
    process_ = tech::default_process();
    cells_ = std::make_unique<tech::StdCellLib>(process_);
    design_ = std::make_unique<lim::SramDesign>(
        lim::build_sram(rig_config(), process_, *cells_));
    auto timed = [&](const char* layer, auto&& fn) {
      if (spans != nullptr) return spans->time(layer, fn);
      return fn();
    };
    synth::synthesize(design_->nl, design_->lib, *cells_);
    ann_ = timed("evsim.annotate_ms", [&] {
      return evsim::annotate_delays(design_->nl, design_->lib, *cells_);
    });
    rig_ = seu::SeuRig{};
    rig_.design = design_.get();
    rig_.cells = cells_.get();
    rig_.ann = &ann_;
    rig_.trace = &trace_;
  }

  tech::Process process_;
  std::unique_ptr<tech::StdCellLib> cells_;
  std::unique_ptr<lim::SramDesign> design_;
  evsim::TimingAnnotation ann_;
  evsim::StimulusTrace trace_;
  seu::SeuRig rig_;
  seu::CampaignOptions options_;
  seu::CampaignResult result_;
  std::vector<seu::SampleRecord> split_;
};

}  // namespace

std::unique_ptr<Workload> make_seu_campaign() {
  return std::make_unique<SeuCampaign>();
}

}  // namespace limbench
