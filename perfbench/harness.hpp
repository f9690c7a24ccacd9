// Shared plumbing of the repo benchmark: options, sample summaries, the
// metric sets a run produces, and the output-check ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds in a steady-clock duration, as a double.
[[nodiscard]] inline double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// The end-to-end latency limit every serving workload is judged by.
inline constexpr double kLatencyLimitMs = 50.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

/// p-quantile (0..1) of `samples` by the nearest-rank rule; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  /// How many observations the value summarises.
  std::uint64_t samples{0};
  /// Where the number came from: "run" (this workload's own traffic),
  /// "replay" (a layer call replayed after the run) or "probe:<workload>"
  /// (a short run of another workload, for a layer this one never enters).
  std::string source = "run";
};

/// Ordered name -> metric map (insertion order is report order).
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples, const std::string& source = "run");
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }
  /// Copy in every metric of `other` whose name is absent here, tagging
  /// its source.
  void fill_missing(const MetricSet& other, const std::string& source);

 private:
  std::vector<Metric> metrics_;
};

/// Everything one workload run produces.
struct RunResult {
  MetricSet end_to_end;
  MetricSet layer;
  std::uint64_t attempted{0};
  /// Operations that errored: transport failures, exceptions, unresolved
  /// futures. Shed, timed-out and rejected requests are outcomes the
  /// serving tier chose, counted against the SLO instead.
  std::uint64_t failed{0};
  std::vector<std::string> check_failures;
  /// Digest of the generated inputs (a different seed must change it).
  std::uint64_t input_digest{0};
  /// Lines of the "where the time went" table (traced runs only).
  std::vector<std::string> breakdown;
  /// Free-form report lines (check coverage and the like).
  std::vector<std::string> notes;

  /// Record a failed output check (the run then reports correct=false).
  void fail(const std::string& why);
  /// fail() unless `ok`.
  void expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// FNV-1a over raw bytes, chained through `seed`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace perfbench
