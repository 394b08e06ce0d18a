/// \file wl_stream.cpp
/// Workload `stream`: in-process gang runs of both paper apps with their
/// real DSP computes — ErrorGenApp::compute_errors_threaded on 1024-sample
/// frames and ParticleFilterApp::track_threaded with 1023 particles (the
/// nearest count the PEs divide evenly) — on one PE fewer than the host
/// has cores. Sub-runs of fixed length alternate between the apps; the
/// figures are medians over them. Every gang output is compared with the
/// colocated (single-thread) run of the same inputs.
#include "wl_stream.hpp"

#include <thread>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "dsp/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kFrame = 1024;
constexpr std::size_t kOrder = 10;
constexpr std::int64_t kSpeechIters = 2000;
constexpr std::size_t kTrackSteps = 1000;
constexpr int kInputSets = 2;
constexpr int kSetupReps = 51;
constexpr std::size_t kWindowPairs = 20;

}  // namespace

StreamApps::StreamApps(int pes)
    : speech(pes, {.frame_size = kFrame, .max_frame_size = kFrame, .order = kOrder, .max_order = 16}),
      particle(pes, {.particles = particles_for(pes), .max_particles = particles_for(pes), .model = {}}) {}

std::size_t StreamApps::particles_for(int pes) {
  return 1024 / static_cast<std::size_t>(pes) * static_cast<std::size_t>(pes);
}

int stream_pes() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores - 1);
}

StreamInputs make_stream_inputs(std::uint64_t seed, const StreamApps& apps) {
  StreamInputs in;
  SeededRng rng(seed ^ 0x73747265ull);
  spi::dsp::Rng speech_rng(rng.next());
  const std::vector<double> signal = spi::dsp::synthetic_speech(kFrame * 8, speech_rng);
  const spi::apps::SpeechCompressor reference(apps.speech.params());
  for (int k = 0; k < kInputSets; ++k) {
    const auto offset = static_cast<std::ptrdiff_t>(rng.uniform_int(0, static_cast<std::int64_t>(signal.size() - kFrame)));
    StreamInputs::Speech s;
    s.frame.assign(signal.begin() + offset, signal.begin() + offset + static_cast<std::ptrdiff_t>(kFrame));
    s.coeffs = reference.frame_coefficients(s.frame);
    in.speech.push_back(std::move(s));
    spi::dsp::Rng crack_rng(rng.next());
    in.trajectories.push_back(spi::dsp::simulate_crack(apps.particle.params().model, kTrackSteps, crack_rng));
  }
  // The colocated baselines: the same plans walked by the calling thread.
  spi::core::JobInstance speech_instance(apps.speech.system().plan());
  spi::core::JobInstance particle_instance(apps.particle.system().plan());
  for (int k = 0; k < kInputSets; ++k) {
    const std::vector<spi::apps::ErrorGenApp::SpeechJobSpec> job{{in.speech[k].frame, in.speech[k].coeffs}};
    in.speech[k].expected = apps.speech.compute_errors_batch(job, speech_instance).front();
    const std::vector<spi::apps::ParticleFilterApp::ParticleJobSpec> track{
        {in.trajectories[k], apps.particle.params().seed}};
    in.expected_estimates.push_back(apps.particle.track_batch(track, particle_instance).front().estimates);
  }
  return in;
}

double time_stream_setup(int pes, int reps) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    const StreamApps apps(pes);
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(secs);
}

SubRun speech_subrun(const StreamApps& apps, const StreamInputs::Speech& in, std::int64_t iterations,
                     RunResult& result) {
  spi::core::RunOptions run;
  run.iterations = iterations;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::vector<double> errors = apps.speech.compute_errors_threaded(in.frame, in.coeffs, run);
  const std::int64_t t1 = now_ns();
  const double cpu = process_cpu_s() - cpu0;
  ++result.attempted;
  if (errors != in.expected) result.fail("speech gang output differs from the colocated run");
  return {static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(iterations),
          cpu * 1e6 / static_cast<double>(iterations)};
}

SubRun particle_subrun(const StreamApps& apps, const spi::dsp::CrackTrajectory& trajectory,
                       const std::vector<double>& expected, RunResult& result) {
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const spi::apps::TrackResult r = apps.particle.track_threaded(trajectory, spi::core::RunOptions{});
  const std::int64_t t1 = now_ns();
  const double cpu = process_cpu_s() - cpu0;
  ++result.attempted;
  if (r.estimates != expected) result.fail("particle gang estimates differ from the colocated run");
  const auto steps = static_cast<double>(trajectory.observations.size());
  return {static_cast<double>(t1 - t0) * 1e-3 / steps, cpu * 1e6 / steps};
}

RunResult run_stream(const BenchOptions& options) {
  RunResult result;
  const std::int64_t t_begin = now_ns();
  const int pes = stream_pes();
  const double setup_s = time_stream_setup(pes, kSetupReps);
  const StreamApps apps(pes);
  const StreamInputs in = make_stream_inputs(options.seed, apps);

  // Warm-up pair, then alternate sub-runs until the budget is spent.
  (void)speech_subrun(apps, in.speech[0], kSpeechIters / 4, result);
  (void)particle_subrun(apps, in.trajectories[0], in.expected_estimates[0], result);
  const std::int64_t deadline = t_begin + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<double> speech_us, particle_us, speech_cpu, particle_cpu, pair_us;
  std::int64_t last_pair_ns = 0;
  for (std::size_t k = 0; speech_us.size() < 8 || now_ns() + last_pair_ns < deadline; ++k) {
    const std::int64_t t0 = now_ns();
    const std::size_t set = k % in.speech.size();
    const SubRun s = speech_subrun(apps, in.speech[set], kSpeechIters, result);
    const SubRun p = particle_subrun(apps, in.trajectories[set], in.expected_estimates[set], result);
    speech_us.push_back(s.us_per_iter);
    speech_cpu.push_back(s.cpu_us_per_iter);
    particle_us.push_back(p.us_per_iter);
    particle_cpu.push_back(p.cpu_us_per_iter);
    pair_us.push_back(s.us_per_iter + p.us_per_iter);
    last_pair_ns = now_ns() - t0;
  }
  const double speech_med = median(speech_us);
  const double particle_med = median(particle_us);
  std::fprintf(stderr,
               "stream: %zu sub-run pairs on %d PEs; speech %.1f us/iter (%.0f iter/s, cpu %.1f us/iter), "
               "particle %.1f us/iter (%.0f iter/s, cpu %.1f us/iter)\n",
               speech_us.size(), pes, speech_med, 1e6 / speech_med, median(speech_cpu), particle_med,
               1e6 / particle_med, median(particle_cpu));
  // p90 of a typical stretch of the run: the median over windows of
  // kWindowPairs consecutive pairs of each window's 90th percentile, so a
  // burst of host preemption moves a few windows, not the figure.
  std::vector<double> window_p90;
  for (std::size_t at = 0; at + kWindowPairs <= pair_us.size(); at += kWindowPairs)
    window_p90.push_back(quantile({pair_us.begin() + static_cast<std::ptrdiff_t>(at),
                                   pair_us.begin() + static_cast<std::ptrdiff_t>(at + kWindowPairs)},
                                  0.9));
  if (window_p90.empty()) window_p90.push_back(quantile(pair_us, 0.9));
  const auto n = static_cast<std::int64_t>(pair_us.size());
  result.count("stream.sent", result.attempted);
  result.count("stream.failed", result.failed);
  result.add("setup_s", setup_s, "s", kSetupReps);
  result.add("ops_per_s", 1e6 / (speech_med + particle_med), "1/s", n);
  result.add("p50_us", median(pair_us), "us", n);
  result.add("p90_us", median(window_p90), "us", n);
  result.add("cpu_us_per_op", median(speech_cpu) + median(particle_cpu), "us", n);
  return result;
}

}  // namespace perfbench
