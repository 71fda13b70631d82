// limbench harness: the workload interface, timing, order statistics,
// result digests and per-layer span accounting shared by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace limbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 over (seed, index): item `index` of a run draws its inputs
/// from this value alone, so a seed fixes every input of the run.
std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index);

/// FNV-1a over the bit patterns of simulated results. Two runs with the
/// same seed must produce the same value on any commit whose simulators
/// compute the same numbers.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::int64_t v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(const std::string& s);
  void add(const std::vector<double>& v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Median with linear interpolation between the middle pair.
double median(std::vector<double> v);

/// The highest percentile that still has `beyond` items above it: the
/// value at 0-based rank n-1-beyond of the sorted items, reported with its
/// nearest-rank percentile 100*(rank+1)/n. With n <= beyond items the
/// maximum is returned with `beyond` set to 0.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Per-layer accounting for traced items: milliseconds per layer span and
/// per-item counts, accumulated over items.
class Spans {
 public:
  /// Times `fn` and charges it to `layer`.
  template <typename Fn>
  decltype(auto) time(const std::string& layer, Fn&& fn) {
    struct Charge {
      Spans* s;
      const std::string& layer;
      Clock::time_point t0;
      ~Charge() { s->add_ms(layer, seconds_since(t0) * 1e3); }
    } charge{this, layer, Clock::now()};
    return fn();
  }
  void add_ms(const std::string& layer, double ms) { ms_[layer] += ms; }
  void set_count(const std::string& name, double v) { counts_[name] = v; }
  void add_count(const std::string& name, double v) { counts_[name] += v; }

  const std::map<std::string, double>& ms() const { return ms_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  double total_ms() const;

 private:
  std::map<std::string, double> ms_;
  std::map<std::string, double> counts_;
};

/// One benchmark workload: a closed loop of items, each one public
/// limsynth call on fresh seed-drawn inputs of a fixed shape.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One-time work before the first item (chip builds, SEU rig, ...).
  /// Timed repeatedly for setup_s; each call must redo the whole work.
  virtual void setup() = 0;
  /// Draws one item's inputs from `seed`. Not timed.
  virtual void prepare(std::uint64_t seed) = 0;
  /// The end-to-end call a limsynth user makes. Timed.
  virtual void run() = 0;
  /// Checks the outputs of the last run() against an independent
  /// reference. Not timed.
  virtual bool check() = 0;
  /// Folds the last run()'s simulated results into `d`.
  virtual void digest(Digest& d) const = 0;
  /// Breaks the last run()'s outputs so check() must fail (self-test).
  virtual void corrupt() = 0;
  /// Re-runs the prepared item as its layers' public calls, in the order
  /// run() makes them, charging each to `spans`.
  virtual void traced(Spans& spans) = 0;
  /// True when the last traced() reproduced run()'s outputs bit for bit.
  /// Not timed.
  virtual bool split_matches() const = 0;
  /// Set-up work re-done once with each layer timed (traced runs only).
  virtual void traced_setup(Spans& spans) { (void)spans; setup(); }
  /// Per-layer metrics this workload reports from its traced items, as
  /// (name, unit) pairs.
  virtual std::vector<std::pair<std::string, std::string>> layer_metrics()
      const = 0;
  /// Converts the spans and counts summed over `items` traced items, and
  /// the per-item count series, into the reported per-layer values. By
  /// default a span is reported as its mean per item and a count as the
  /// median of its series; workloads override this for derived metrics.
  virtual std::map<std::string, double> summarize(
      const Spans& totals, const std::map<std::string, std::vector<double>>&
                               counts,
      std::size_t items) const;
};

std::unique_ptr<Workload> make_sram_flow();
std::unique_ptr<Workload> make_spgemm();
std::unique_ptr<Workload> make_seu_campaign();
std::unique_ptr<Workload> make_brick_golden();

/// Workload names in their fixed order, and a factory by name (nullptr
/// for an unknown name).
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Exact-equality helper for doubles that treats equal bit patterns as
/// equal (NaN-safe).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace limbench
