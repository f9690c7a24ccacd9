#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples,
                    const std::string& source) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples, source};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples, source});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricSet::value(const std::string& name) const {
  const Metric* m = find(name);
  return m ? m->value : 0.0;
}

void MetricSet::fill_missing(const MetricSet& other,
                             const std::string& source) {
  for (const Metric& m : other.all()) {
    if (!find(m.name)) set(m.name, m.value, m.unit, m.samples, source);
  }
}

void RunResult::fail(const std::string& why) {
  // Keep the report readable when one defect repeats thousands of times.
  constexpr std::size_t kMaxListed = 20;
  if (check_failures.size() < kMaxListed) check_failures.push_back(why);
  else if (check_failures.size() == kMaxListed)
    check_failures.push_back("... further check failures suppressed");
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
