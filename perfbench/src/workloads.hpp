/// \file workloads.hpp
/// The three workloads and the traced per-layer run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "served.hpp"
#include "spans.hpp"

namespace perfbench {

/// A job is on time when its correct reply arrives within this long of
/// its due time: the period of a 32-sample frame at 8 kHz.
inline constexpr std::int64_t kJobSloNs = 4'000'000;
/// Tenants (and at most this many connections) of the job traffic.
inline constexpr int kTenants = 4;
/// Plan-cache capacity the deploy workload runs the daemon with: small
/// enough that LRU eviction happens.
inline constexpr int kDeployCacheCapacity = 6;
/// Daemon start-ups per run; setup_s is their median.
inline constexpr int kServedSetupReps = 7;

/// Reference rate for the job latency metrics: about half of the
/// sustained rate measured on a 4-core host when the benchmark was
/// written.
inline constexpr double kJobReferenceRate = 1500.0;
/// Share of particle jobs in the job traffic (the rest is speech).
inline constexpr double kParticleFrac = 0.02;

/// End-to-end metrics every workload reports (see BENCHMARK.json).
RunResult run_jobs(const BenchOptions& options);
RunResult run_deploy(const BenchOptions& options);
RunResult run_stream(const BenchOptions& options);
/// The traced run: per-layer metrics for `options.workload`.
RunResult run_traced(const BenchOptions& options);

/// Starts spi_served with the benchmark's flags plus `extra`.
std::unique_ptr<ServedProcess> start_served(const BenchOptions& options, bool trace,
                                            const std::vector<std::string>& extra,
                                            const std::string& tag);

/// Starts the daemon `reps` times, keeps the last one running, and
/// returns the median time to ready.
double served_setup(const BenchOptions& options, bool trace, const std::vector<std::string>& extra,
                    int reps, std::unique_ptr<ServedProcess>& keep);

/// Latency summary of one open-loop phase.
struct PhaseStats {
  std::int64_t sent = 0;
  std::int64_t ok = 0;        ///< correct 200 replies
  std::int64_t on_time = 0;   ///< correct and within kJobSloNs of due
  std::int64_t wrong = 0;     ///< wrong body or non-200/429 status
  std::int64_t rejected = 0;  ///< 429
  std::int64_t lost = 0;      ///< no reply before the drain deadline
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;   ///< generator lateness (sent - due)
  std::vector<double> latencies_us;
};

PhaseStats summarize(const std::vector<JobOutcome>& outcomes);

/// Connections (one tenant each) the job generator opens: never more
/// than the cores it runs on allow, at most kTenants.
int job_connections(const BenchOptions& options);

/// One open-loop phase of `seconds` at `rate` jobs/s with a schedule
/// drawn from `seed`; counts and failures go to `result` under `name`.
PhaseStats job_phase(ServedProcess& served, const JobPool& pool, std::uint64_t seed, double rate,
                     double seconds, int connections, const std::string& name, RunResult& result,
                     std::vector<JobOutcome>* keep = nullptr);

/// Adds one phase's counts to `result` under `phase` and charges its wrong
/// and lost jobs as failures.
void account(RunResult& result, const std::string& phase, const PhaseStats& stats,
             const std::vector<std::string>& errors);

}  // namespace perfbench
