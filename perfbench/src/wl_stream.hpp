/// \file wl_stream.hpp
/// Gang-run pieces shared by the `stream` workload and the traced run.
#pragma once

#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "dsp/particle_filter.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Both paper apps at the stream workload's sizes, compiled.
struct StreamApps {
  explicit StreamApps(int pes);
  static std::size_t particles_for(int pes);
  spi::apps::ErrorGenApp speech;
  spi::apps::ParticleFilterApp particle;
};

/// Seeded inputs with their colocated-run outputs.
struct StreamInputs {
  struct Speech {
    std::vector<double> frame;
    std::vector<double> coeffs;
    std::vector<double> expected;
  };
  std::vector<Speech> speech;
  std::vector<spi::dsp::CrackTrajectory> trajectories;
  std::vector<std::vector<double>> expected_estimates;
};

/// One fewer PE than the host has cores (at least one).
int stream_pes();
StreamInputs make_stream_inputs(std::uint64_t seed, const StreamApps& apps);
/// Median seconds to construct (compile) both apps, over `reps` builds.
double time_stream_setup(int pes, int reps);

struct SubRun {
  double us_per_iter = 0.0;
  double cpu_us_per_iter = 0.0;  ///< process CPU (getrusage)
};

/// One gang sub-run; a wrong output is charged to `result`.
SubRun speech_subrun(const StreamApps& apps, const StreamInputs::Speech& in, std::int64_t iterations,
                     RunResult& result);
SubRun particle_subrun(const StreamApps& apps, const spi::dsp::CrackTrajectory& trajectory,
                       const std::vector<double>& expected, RunResult& result);

}  // namespace perfbench
