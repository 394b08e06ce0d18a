/// \file common.hpp
/// Shared pieces of the benchmark: the seeded generator, clocks,
/// order statistics and the metric record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, so one seed
/// reproduces every schedule and input on every platform.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean.
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& values, SeededRng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(values[i - 1], values[j]);
  }
}

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();
/// Sleeps until the monotonic clock reaches `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);
/// CPU seconds of this process (all threads) / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Linear-interpolated quantile (q in [0, 1]) of `values` (copied and
/// sorted); 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Everything one workload run produces.
struct RunResult {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Operation counts by phase and outcome ("phase.sent" ...), printed
  /// with the result.
  std::vector<std::pair<std::string, std::int64_t>> counts;
  /// First few failure descriptions, for the log.
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit, std::int64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Adds to the named count (created at 0).
  void count(const std::string& name, std::int64_t value);
  void fail(std::string what);
};

/// "%.17g" — every digit of a double.
std::string fmt_double(double value);
/// JSON string literal (quotes included).
std::string json_str(const std::string& text);

/// Options shared by every workload.
struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  ///< where spi_served lives
  std::string out_dir;  ///< where traces are written
  std::vector<int> server_cores;  ///< pinning for spi_served (empty = none)
  std::vector<int> gen_cores;     ///< pinning for the load generator (empty = none)
};

/// Restricts the calling thread (and threads it creates later) to `cores`;
/// an empty list restores the mask the process started with.
void pin_self(const std::vector<int>& cores);

}  // namespace perfbench
