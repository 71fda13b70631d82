// limbench: the limsynth benchmark.
//
//   limbench --workload NAME --seed N --seconds S --trace 0|1
//   limbench --selftest
//
// An untraced run (--trace 0) times the workload's set-up, then runs items
// one at a time on one thread for S seconds (and at least kMinItems
// items), checking every item's outputs. It prints a provenance line and,
// as its last line, {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics. A traced run (--trace 1) runs every item twice —
// the end-to-end call, then its layers called one by one — and reports the
// per-layer metrics of every workload: the named one for S seconds, each
// other one for S/4 seconds. See README.md for the metric definitions.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace limbench {
int run_selftest();
}

namespace {

using namespace limbench;

// Items every run measures at least: enough for a tail with ten items
// beyond it.
constexpr std::size_t kMinItems = 20;
// Items whose results form the digest and the per-item count metrics, so
// both repeat exactly for a seed whatever the run length.
constexpr std::size_t kDigestItems = 8;
// Stop starting items after this long, even below kMinItems.
constexpr double kHardCapSeconds = 120.0;
// Set-up timing: the median of this many timed batches of calls, each
// batch at least kSetupBatchSeconds long.
constexpr int kSetupBatches = 9;
constexpr double kSetupBatchSeconds = 0.01;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  if (a->selftest) return true;
  return make_workload(a->workload) != nullptr && have_seed &&
         std::isfinite(a->seconds) && a->seconds > 0.0 && a->trace >= 0;
}

// Outcome of one checked item; exceptions count as failed items.
struct ItemOutcome {
  bool ok = false;
  double run_s = 0.0;
};

ItemOutcome run_item(Workload& w, std::uint64_t seed) {
  ItemOutcome out;
  try {
    w.prepare(seed);
    const Clock::time_point t0 = Clock::now();
    w.run();
    out.run_s = seconds_since(t0);
    out.ok = w.check();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "limbench: item failed: %s\n", e.what());
  }
  return out;
}

// Median per-call set-up time. Calls are timed in batches long enough that
// clock overhead does not count for sub-microsecond set-ups; the batch
// size is found by doubling, and those calibration calls are not counted.
double time_setup(Workload& w) {
  long batch = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (long k = 0; k < batch; ++k) w.setup();
    if (seconds_since(t0) >= kSetupBatchSeconds || batch >= (1L << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kSetupBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (long k = 0; k < batch; ++k) w.setup();
    per_call.push_back(seconds_since(t0) / static_cast<double>(batch));
  }
  return median(per_call);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false", attempted,
              failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_untraced(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a.workload);
  const double setup_s = time_setup(*w);

  const Clock::time_point start = Clock::now();
  // Warm-up: one untimed item on inputs no measured item uses.
  std::size_t attempted = 1, failed = 0;
  if (!run_item(*w, item_seed(~a.seed, 0)).ok) ++failed;

  std::vector<double> item_ms;
  Digest digest;
  const Clock::time_point loop = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(loop);
    if ((i >= kMinItems && elapsed >= a.seconds) ||
        seconds_since(start) >= kHardCapSeconds)
      break;
    const ItemOutcome o = run_item(*w, item_seed(a.seed, i));
    ++attempted;
    if (!o.ok) ++failed;
    item_ms.push_back(o.run_s * 1e3);
    if (i < kDigestItems) w->digest(digest);
  }

  double busy_ms = 0.0;
  for (double ms : item_ms) busy_ms += ms;
  const Tail t = tail(item_ms);
  // Throughput and the median go to the provenance line only: on a shared
  // machine they swing with the other tenants far more than the tail does
  // (see README.md, Noise).
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": 0, "
      "\"build_type\": \"%s\", \"hardware_threads\": %u, \"threads\": 1, "
      "\"items\": %zu, \"items_per_s\": %.6g, \"item_p50_ms\": %.6g, "
      "\"tail_percentile\": %.4g, \"tail_items_beyond\": %zu, "
      "\"digest\": \"%s\", \"digest_items\": %zu}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      LIMBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      item_ms.size(), static_cast<double>(item_ms.size()) / (busy_ms * 1e-3),
      median(item_ms), t.percentile, t.beyond, digest.hex().c_str(),
      kDigestItems);
  print_result(attempted, failed,
               {{"setup_s", setup_s, "s"},
                {"item_tail_ms", t.value, "ms"},
                {"peak_rss_mb", peak_rss_mb(), "MiB"}});
  return 0;
}

// Traced items of one workload for `budget` seconds; appends its per-layer
// metrics and returns {attempted, failed}.
std::pair<std::size_t, std::size_t> trace_workload(
    const std::string& name, const Args& a, double budget,
    std::vector<Metric>* metrics) {
  const std::unique_ptr<Workload> w = make_workload(name);
  Spans totals;
  w->traced_setup(totals);
  std::size_t attempted = 1, failed = 0;
  if (!run_item(*w, item_seed(~a.seed, 0)).ok) ++failed;

  std::map<std::string, std::vector<double>> series;
  std::vector<double> overhead_ms;
  double span_ms = 0.0, traced_ms = 0.0;
  std::size_t items = 0;
  const Clock::time_point loop = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(loop);
    if ((i >= kDigestItems && elapsed >= budget) ||
        elapsed >= std::max(2 * budget, 10.0))
      break;
    ++attempted;
    const ItemOutcome o = run_item(*w, item_seed(a.seed, i));
    Spans item;
    bool same = false;
    double item_traced_ms = 0.0;
    try {
      const Clock::time_point t0 = Clock::now();
      w->traced(item);
      item_traced_ms = seconds_since(t0) * 1e3;
      same = w->split_matches();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "limbench: traced item failed: %s\n", e.what());
    }
    if (!o.ok || !same) {
      ++failed;
      continue;
    }
    ++items;
    overhead_ms.push_back(item_traced_ms - o.run_s * 1e3);
    traced_ms += item_traced_ms;
    span_ms += item.total_ms();
    for (const auto& [layer, ms] : item.ms()) totals.add_ms(layer, ms);
    for (const auto& [count, v] : item.counts()) {
      totals.add_count(count, v);
      if (i < kDigestItems) series[count].push_back(v);
    }
  }
  if (items == 0) return {attempted, failed};

  const auto values = w->summarize(totals, series, items);
  for (const auto& [metric, unit] : w->layer_metrics())
    metrics->push_back({metric, values.at(metric), unit});
  metrics->push_back(
      {name + ".trace_overhead_ms", median(overhead_ms), "ms"});
  metrics->push_back(
      {name + ".layer_share_pct", 100.0 * span_ms / traced_ms, "%"});
  metrics->push_back({name + ".traced_items",
                      static_cast<double>(items), "count"});
  return {attempted, failed};
}

int run_traced(const Args& a) {
  std::vector<std::string> order = {a.workload};
  for (const std::string& name : workload_names())
    if (name != a.workload) order.push_back(name);

  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  for (const std::string& name : order) {
    const double budget = name == a.workload ? a.seconds : a.seconds / 4;
    const auto [n, f] = trace_workload(name, a, budget, &metrics);
    attempted += n;
    failed += f;
  }
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": 1, "
      "\"build_type\": \"%s\", \"hardware_threads\": %u, \"threads\": 1}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      LIMBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: limbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       limbench --selftest\n");
    return 2;
  }
  try {
    if (a.selftest) return limbench::run_selftest();
    return a.trace == 1 ? run_traced(a) : run_untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "limbench: %s\n", e.what());
    return 1;
  }
}
