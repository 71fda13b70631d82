// limbench --selftest: checks the harness itself.
//
//  * order statistics: median and the tail rank on known vectors;
//  * determinism: two fresh instances of a workload given the same item
//    seed produce the same result digest, and another seed a different one;
//  * the traced split of that item reproduces the end-to-end outputs;
//  * a deliberately corrupted output (product, outcome record, ...) fails
//    the item's check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace limbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void order_statistics() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Tail t100 = tail(hundred);
  expect(near(t100.value, 90.0) && near(t100.percentile, 90.0) &&
             t100.beyond == 10,
         "tail of 1..100 is p90 = 90 with 10 items beyond");

  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  const Tail t20 = tail(twenty);
  expect(near(t20.value, 10.0) && near(t20.percentile, 50.0) &&
             t20.beyond == 10,
         "tail of 1..20 is p50 = 10 with 10 items beyond");

  const Tail t5 = tail({5, 1, 4, 2, 3});
  expect(near(t5.value, 5.0) && t5.beyond == 0,
         "tail of 5 items falls back to the maximum");

  expect(near(median({3, 1, 2}), 2.0), "median of an odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
  expect(item_seed(7, 3) == item_seed(7, 3) &&
             item_seed(7, 3) != item_seed(7, 4) &&
             item_seed(7, 3) != item_seed(8, 3),
         "item seeds depend on (seed, index) alone");
}

std::uint64_t digest_of(const std::string& name, std::uint64_t seed) {
  const std::unique_ptr<Workload> w = make_workload(name);
  w->setup();
  w->prepare(seed);
  w->run();
  Digest d;
  w->digest(d);
  return d.value();
}

void workload(const std::string& name) {
  const std::uint64_t seed = item_seed(7, 0);
  const std::unique_ptr<Workload> w = make_workload(name);
  w->setup();
  w->prepare(seed);
  w->run();
  expect(w->check(), name + ": item passes its check");
  Spans spans;
  w->traced(spans);
  expect(w->split_matches(), name + ": traced split reproduces the outputs");
  expect(spans.total_ms() > 0.0, name + ": traced split records spans");

  const std::uint64_t a = digest_of(name, seed);
  expect(a == digest_of(name, seed), name + ": same seed, same digest");
  expect(a != digest_of(name, item_seed(7, 1)),
         name + ": another seed, another digest");

  w->corrupt();
  expect(!w->check(), name + ": corrupted output fails the check");
}

}  // namespace

int run_selftest() {
  order_statistics();
  for (const std::string& name : workload_names()) workload(name);
  std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace limbench
