/// \file wl_jobs.cpp
/// Workload `jobs`: open-loop explicit speech (98%) and particle (2%) jobs
/// in small pipelined bursts over up to four keep-alive connections, one
/// per tenant, at a fixed reference rate. Reports latency from due time
/// and the daemon's CPU per job.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kReferenceWindows = 24;

}  // namespace

std::unique_ptr<ServedProcess> start_served(const BenchOptions& options, bool trace,
                                            const std::vector<std::string>& extra,
                                            const std::string& tag) {
  // --max-seconds: a daemon orphaned by a crashed benchmark process still exits.
  std::vector<std::string> args{"--port",         "0",    "--max-queue-depth", "1000000", "--memory-budget-mb",
                                "4096",           "--dump-dir", options.out_dir, "--max-seconds", "300"};
  if (!trace) args.emplace_back("--no-trace");
  args.insert(args.end(), extra.begin(), extra.end());
  return std::make_unique<ServedProcess>(options.bin_dir + "/spi_served", args, options.server_cores,
                                         options.out_dir + "/served-" + tag + ".log");
}

double served_setup(const BenchOptions& options, bool trace, const std::vector<std::string>& extra,
                    int reps, std::unique_ptr<ServedProcess>& keep) {
  std::vector<double> ready;
  for (int r = 0; r < reps; ++r) {
    keep.reset();
    keep = start_served(options, trace, extra, options.workload + "-" + std::to_string(r));
    ready.push_back(keep->ready_s());
  }
  return median(ready);
}

PhaseStats summarize(const std::vector<JobOutcome>& outcomes) {
  PhaseStats s;
  std::vector<double> late;
  for (const JobOutcome& o : outcomes) {
    ++s.sent;
    late.push_back(static_cast<double>(o.sent_ns - o.due_ns) * 1e-3);
    if (o.done_ns == 0) {
      ++s.lost;
      continue;
    }
    if (o.status == 429) {
      ++s.rejected;
      continue;
    }
    if (!o.correct) {
      ++s.wrong;
      continue;
    }
    ++s.ok;
    const std::int64_t latency = o.done_ns - o.due_ns;
    if (latency <= kJobSloNs) ++s.on_time;
    s.latencies_us.push_back(static_cast<double>(latency) * 1e-3);
  }
  s.p50_us = quantile(s.latencies_us, 0.50);
  s.p90_us = quantile(s.latencies_us, 0.90);
  s.p99_us = quantile(s.latencies_us, 0.99);
  s.late_p99_us = quantile(late, 0.99);
  return s;
}

void account(RunResult& result, const std::string& phase, const PhaseStats& stats,
             const std::vector<std::string>& errors) {
  result.attempted += stats.sent;
  result.count(phase + ".sent", stats.sent);
  result.count(phase + ".succeeded", stats.ok);
  result.count(phase + ".failed", stats.wrong + stats.lost);
  result.count(phase + ".rejected", stats.rejected);
  for (std::int64_t i = 0; i < stats.wrong + stats.lost + stats.rejected; ++i)
    result.fail(i < static_cast<std::int64_t>(errors.size()) ? phase + ": " + errors[static_cast<std::size_t>(i)]
                                                              : phase + ": job without a correct reply");
}

int job_connections(const BenchOptions& options) {
  return std::clamp(static_cast<int>(options.gen_cores.size()) * 2, 1, kTenants);
}

PhaseStats job_phase(ServedProcess& served, const JobPool& pool, std::uint64_t seed, double rate,
                     double seconds, int connections, const std::string& name, RunResult& result,
                     std::vector<JobOutcome>* keep) {
  SeededRng rng(seed ^ (static_cast<std::uint64_t>(rate * 1000.0) * 0x9E3779B97F4A7C15ull) ^
                std::hash<std::string>{}(name));
  const std::vector<Burst> schedule = make_schedule(rng, pool, rate, seconds, connections, kParticleFrac);
  OpenLoopClient client(served.port(), connections);
  std::vector<std::string> errors;
  const std::int64_t start = now_ns() + 2'000'000;
  std::vector<JobOutcome> outcomes = client.run(schedule, pool, start, 2'000'000'000, errors);
  PhaseStats stats = summarize(outcomes);
  account(result, name, stats, errors);
  if (keep != nullptr) *keep = std::move(outcomes);
  return stats;
}

RunResult run_jobs(const BenchOptions& options) {
  RunResult result;
  pin_self(options.gen_cores);
  const std::int64_t t_begin = now_ns();
  std::unique_ptr<ServedProcess> served;
  const double setup_s = served_setup(options, false, {}, kServedSetupReps, served);
  const JobPool pool = make_job_pool(options.seed, kTenants, 256, 16);
  const int conns = job_connections(options);
  std::uint64_t window = 0;
  const auto phase = [&](double rate, double seconds, const std::string& name) {
    return job_phase(*served, pool, options.seed + 0x100 * ++window, rate, seconds, conns, name, result);
  };

  // Budget: warm-up, then the reference windows. Every figure is a median
  // over short windows, so one scheduling hiccup on the host moves one
  // window, not the result.
  const double budget = std::max(4.0, options.seconds - static_cast<double>(now_ns() - t_begin) * 1e-9);
  (void)phase(kJobReferenceRate, 0.3, "warmup");
  const double window_s = std::max(0.2, budget * 0.9 / kReferenceWindows);
  std::vector<double> p50s, p90s, cpus;
  std::int64_t ref_jobs = 0;
  for (int w = 0; w < kReferenceWindows; ++w) {
    const double cpu0 = served->cpu_s();
    const PhaseStats s = phase(kJobReferenceRate, window_s, "reference");
    cpus.push_back((served->cpu_s() - cpu0) / static_cast<double>(std::max<std::int64_t>(1, s.ok)) * 1e6);
    p50s.push_back(s.p50_us);
    p90s.push_back(s.p90_us);
    ref_jobs += s.ok;
  }

  std::fprintf(stderr, "jobs: reference p50 %.1f us, p90 %.1f us, daemon %.1f us CPU per job\n", median(p50s),
               median(p90s), median(cpus));

  result.add("setup_s", setup_s, "s", kServedSetupReps);
  // Capacity of the single-threaded daemon: jobs per second of its CPU.
  result.add("ops_per_s", 1e6 / median(cpus), "1/s", ref_jobs);
  result.add("p50_us", median(p50s), "us", ref_jobs);
  result.add("p90_us", median(p90s), "us", ref_jobs);
  result.add("cpu_us_per_op", median(cpus), "us", ref_jobs);
  return result;
}

}  // namespace perfbench
