#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace limbench {

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

void Digest::add(const std::vector<double>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  add_bytes(v.data(), v.size() * sizeof(double));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t rank = n - 1 - beyond;
  t.value = v[rank];
  t.percentile = 100.0 * static_cast<double>(rank + 1) /
                 static_cast<double>(n);
  t.beyond = beyond;
  return t;
}

double Spans::total_ms() const {
  double s = 0.0;
  for (const auto& [layer, ms] : ms_) s += ms;
  return s;
}

std::map<std::string, double> Workload::summarize(
    const Spans& totals,
    const std::map<std::string, std::vector<double>>& counts,
    std::size_t items) const {
  std::map<std::string, double> out;
  const double n = items > 0 ? static_cast<double>(items) : 1.0;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto ms = totals.ms().find(name);
    if (ms != totals.ms().end()) {
      out[name] = ms->second / n;
      continue;
    }
    const auto c = counts.find(name);
    if (c != counts.end()) out[name] = median(c->second);
  }
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sram_flow", "spgemm", "seu_campaign", "brick_golden"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sram_flow") return make_sram_flow();
  if (name == "spgemm") return make_spgemm();
  if (name == "seu_campaign") return make_seu_campaign();
  if (name == "brick_golden") return make_brick_golden();
  return nullptr;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace limbench
