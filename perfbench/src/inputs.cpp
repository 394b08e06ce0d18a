#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"

namespace perfbench {

namespace {

void append_doubles(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(values[i]);
  }
  out += ']';
}

std::string tenant_name(int tenant) { return "tenant" + std::to_string(tenant); }

/// The request body with the tenant spliced in front of the fields.
std::vector<std::string> wires_for(const std::string& fields, int tenants) {
  std::vector<std::string> wires;
  for (int t = 0; t < tenants; ++t)
    wires.push_back(http_post("/job", "{\"tenant\":\"" + tenant_name(t) + "\"," + fields + "}"));
  return wires;
}

std::string particle_reply(const spi::apps::TrackResult& r) {
  std::string body = "{\"app\": \"particle\", \"estimates\": ";
  append_doubles(body, r.estimates);
  body += ", \"rmse\": " + fmt_double(r.rmse_vs_truth);
  body += ", \"resample_steps\": " + std::to_string(r.resample_steps);
  body += ", \"particles_exchanged\": " + std::to_string(r.particles_exchanged);
  return body + "}\n";
}

}  // namespace

std::string http_post(std::string_view path, std::string_view body) {
  std::string wire = "POST ";
  wire += path;
  wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

std::string speech_reply(const std::vector<double>& errors) {
  std::string body = "{\"app\": \"speech\", \"errors\": ";
  append_doubles(body, errors);
  return body + "}\n";
}

JobPool make_job_pool(std::uint64_t seed, int tenants, std::size_t speech_jobs,
                      std::size_t particle_jobs) {
  JobPool pool;
  SeededRng rng(seed ^ 0x6a6f6273ull);
  // One long synthetic utterance; every job is a frame cut from it.
  spi::dsp::Rng speech_rng(rng.next());
  const std::vector<double> signal = spi::dsp::synthetic_speech(1u << 15, speech_rng);
  for (std::size_t k = 0; k < speech_jobs; ++k) {
    // Sizes and orders cycle, offsets are random: every seed sends the
    // same mix of VTS sizes.
    const std::size_t n = kFrameSizes[k % std::size(kFrameSizes)];
    const std::size_t order = kOrders[(k / std::size(kFrameSizes)) % std::size(kOrders)];
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(signal.size() - n)));
    const std::vector<double> frame(signal.begin() + static_cast<std::ptrdiff_t>(offset),
                                    signal.begin() + static_cast<std::ptrdiff_t>(offset + n));
    const spi::apps::SpeechCompressor reference(
        {.frame_size = n, .max_frame_size = 256, .order = order, .max_order = 8});
    const std::vector<double> coeffs = reference.frame_coefficients(frame);
    std::string fields = "\"app\":\"speech\",\"frame\":";
    append_doubles(fields, frame);
    fields += ",\"coeffs\":";
    append_doubles(fields, coeffs);
    pool.speech.push_back(static_cast<std::uint32_t>(pool.jobs.size()));
    pool.jobs.push_back(
        {wires_for(fields, tenants), speech_reply(reference.frame_errors(frame, coeffs)), false, frame, coeffs});
  }
  if (particle_jobs > 0) {
    // The server's built-in particle model shape (PlanServerOptions).
    const spi::apps::ParticleParams params{.particles = 16, .max_particles = 64, .model = {}};
    const spi::apps::ParticleFilterApp reference(2, params);
    for (std::size_t k = 0; k < particle_jobs; ++k) {
      const std::size_t steps = kParticleSteps[k % std::size(kParticleSteps)];
      spi::dsp::Rng crack_rng(rng.next());
      const spi::dsp::CrackTrajectory trajectory =
          spi::dsp::simulate_crack(params.model, steps, crack_rng);
      std::string fields = "\"app\":\"particle\",\"seed\":" + std::to_string(params.seed) +
                           ",\"observations\":";
      append_doubles(fields, trajectory.observations);
      fields += ",\"truth\":";
      append_doubles(fields, trajectory.truth);
      pool.particle.push_back(static_cast<std::uint32_t>(pool.jobs.size()));
      pool.jobs.push_back(
          {wires_for(fields, tenants), particle_reply(reference.track(trajectory)), true, {}, {}});
    }
  }
  return pool;
}

std::vector<Burst> make_schedule(SeededRng& rng, const JobPool& pool, double jobs_per_s,
                                 double seconds, int connections, double particle_frac,
                                 int max_burst) {
  // P(b) ~ 1/b^2: mostly small bursts, occasionally a deep pipeline.
  std::vector<double> cdf;
  double total = 0.0;
  for (int b = 1; b <= max_burst; ++b) cdf.push_back(total += 1.0 / (b * b));
  double mean_burst = 0.0;
  for (int b = 1; b <= max_burst; ++b) mean_burst += b * (1.0 / (b * b)) / total;

  std::vector<Burst> bursts;
  const double mean_gap_ns = mean_burst / jobs_per_s * 1e9;
  const auto end_ns = static_cast<std::int64_t>(seconds * 1e9);
  double t = rng.exponential(mean_gap_ns);
  while (t < static_cast<double>(end_ns)) {
    Burst burst;
    burst.due_ns = static_cast<std::int64_t>(t);
    burst.conn = static_cast<int>(rng.uniform_int(0, connections - 1));
    const double u = rng.uniform() * total;
    const int size = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()) + 1;
    for (int j = 0; j < size; ++j) {
      const bool particle = !pool.particle.empty() && rng.uniform() < particle_frac;
      const auto& ids = particle ? pool.particle : pool.speech;
      burst.jobs.push_back(ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]);
    }
    bursts.push_back(std::move(burst));
    t += rng.exponential(mean_gap_ns);
  }
  return bursts;
}

df::Graph make_graph(const GraphSpec& spec) {
  using spi::df::ActorId;
  spi::df::Graph g("deploy");
  const int n = spec.actors;
  SeededRng rng(spec.salt);
  for (int i = 0; i < n; ++i) g.add_actor("t" + std::to_string(i), rng.uniform_int(4, 40));
  const auto id = [](int i) { return static_cast<ActorId>(i); };
  switch (spec.shape) {
    case Shape::kChainFeedback: {
      // Pipeline with sparse long-range feedback.
      for (int i = 0; i + 1 < n; ++i) g.connect_simple(id(i), id(i + 1), 0, 16);
      const int stride = std::max(20, n / 24);
      for (int i = 0; i + stride < n; i += stride) g.connect_simple(id(i + stride), id(i), 3, 4);
      break;
    }
    case Shape::kDfsTree: {
      // Binary scatter tree in DFS order (subtrees are index-contiguous).
      const auto build = [&](const auto& self, int lo, int hi) -> void {
        if (lo + 1 >= hi) return;
        const int mid = (lo + 1 + hi) / 2;
        g.connect_simple(id(lo), id(lo + 1), 0, 8);
        self(self, lo + 1, mid);
        if (mid < hi) {
          g.connect_simple(id(lo), id(mid), 0, 8);
          self(self, mid, hi);
        }
      };
      build(build, 0, n);
      break;
    }
    case Shape::kSccBlocks: {
      // Blocks of 64-actor strongly connected components with forward
      // chords, chained by cross-block links.
      constexpr int kBlock = 64;
      for (int lo = 0; lo < n; lo += kBlock) {
        const int hi = std::min(lo + kBlock, n);
        for (int i = lo; i + 1 < hi; ++i) g.connect_simple(id(i), id(i + 1), 0, 4);
        if (hi - lo > 1) g.connect_simple(id(hi - 1), id(lo), 4, 4);
        for (int c = 0; c < 2 && hi - lo > 3; ++c) {
          const auto u = static_cast<int>(rng.uniform_int(lo, hi - 3));
          const auto v = static_cast<int>(rng.uniform_int(u + 1, hi - 1));
          g.connect_simple(id(u), id(v), 0, 4);
        }
        if (hi < n) g.connect_simple(id(hi - 1), id(hi), 0, 4);
      }
      break;
    }
  }
  return g;
}

sched::Assignment block_assignment(const df::Graph& graph, int procs) {
  const std::size_t n = graph.actor_count();
  sched::Assignment assignment(n, procs);
  const std::size_t block = (n + static_cast<std::size_t>(procs) - 1) / static_cast<std::size_t>(procs);
  for (std::size_t i = 0; i < n; ++i)
    assignment.assign(static_cast<spi::df::ActorId>(i), static_cast<sched::Proc>(i / block));
  return assignment;
}

std::vector<DeployStep> make_deploy_plan(std::uint64_t seed, int count) {
  SeededRng rng(seed ^ 0x6465706cull);
  // Kind quotas first, then a seeded order: every seed deploys the same
  // mix, only the order and the draws within each stratum differ.
  const int paper = std::max(1, count / 10);
  const int retune = count / 5;
  const int resubmit = count * 15 / 100;
  const int fresh = count - paper - retune - resubmit;
  std::vector<DeployStep::Kind> kinds;
  kinds.insert(kinds.end(), static_cast<std::size_t>(paper), DeployStep::Kind::kPaperApp);
  kinds.insert(kinds.end(), static_cast<std::size_t>(retune), DeployStep::Kind::kRetune);
  kinds.insert(kinds.end(), static_cast<std::size_t>(resubmit), DeployStep::Kind::kResubmit);
  kinds.insert(kinds.end(), static_cast<std::size_t>(fresh - 1), DeployStep::Kind::kNewGraph);
  shuffle(kinds, rng);
  kinds.insert(kinds.begin(), DeployStep::Kind::kNewGraph);

  // Stratified log-uniform sizes over [100, 10000], one draw per stratum,
  // shapes and processor counts cycling over the strata: every seed
  // covers the size range and the shapes the same way.
  const auto stratified = [&rng](int n) {
    std::vector<GraphSpec> specs;
    for (int k = 0; k < n; ++k) {
      GraphSpec g;
      g.actors = static_cast<int>(std::lround(100.0 * std::pow(100.0, (k + rng.uniform()) / n)));
      g.shape = static_cast<Shape>(k % 3);
      g.procs = 2 + (k * 5) % 7;
      g.salt = rng.next();
      specs.push_back(g);
    }
    shuffle(specs, rng);
    return specs;
  };
  const std::vector<GraphSpec> fresh_graphs = stratified(fresh);
  const std::vector<GraphSpec> retune_graphs = stratified(retune);
  const std::vector<GraphSpec> resubmit_sizes = stratified(resubmit);
  constexpr std::size_t kSpeechBounds[] = {512, 1024, 2048};
  constexpr std::size_t kParticleBounds[] = {96, 192, 384};  // divisible by every PE count
  constexpr int kPes[] = {3, 4, 6, 8};

  std::vector<DeployStep> steps;
  std::size_t next_fresh = 0, next_retune = 0, next_resubmit = 0;
  for (const DeployStep::Kind kind : kinds) {
    DeployStep step;
    step.kind = kind;
    step.pick = rng.next();
    switch (kind) {
      case DeployStep::Kind::kNewGraph:
        step.graph = fresh_graphs[next_fresh++];
        break;
      case DeployStep::Kind::kPaperApp:
        step.speech_app = rng.uniform() < 0.5;
        step.pes = kPes[rng.uniform_int(0, 3)];
        step.bound = step.speech_app ? kSpeechBounds[rng.uniform_int(0, 2)]
                                     : kParticleBounds[rng.uniform_int(0, 2)];
        break;
      case DeployStep::Kind::kRetune:
        step.graph = retune_graphs[next_retune++];
        step.exec = 1000 + static_cast<std::int64_t>(steps.size());
        break;
      case DeployStep::Kind::kResubmit:
        step.graph = resubmit_sizes[next_resubmit++];
        break;
    }
    steps.push_back(step);
  }
  return steps;
}

bool LruModel::contains(const std::string& key) const {
  return std::find(keys_.begin(), keys_.end(), key) != keys_.end();
}

int LruModel::insert(const std::string& key) {
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  if (it != keys_.end()) keys_.erase(it);
  keys_.insert(keys_.begin(), key);
  int evicted = 0;
  while (keys_.size() > capacity_) {
    keys_.pop_back();
    ++evicted;
  }
  return evicted;
}

std::string check_job_reply(int status, std::string_view body, const std::string& expected) {
  if (status != 200) return "status " + std::to_string(status) + ": " + std::string(body.substr(0, 120));
  if (body != expected) {
    std::size_t at = 0;
    while (at < body.size() && at < expected.size() && body[at] == expected[at]) ++at;
    return "reply differs from the sequential reference at byte " + std::to_string(at);
  }
  return "";
}

std::string check_plan_ack(int status, std::string_view body, const std::string& key,
                           bool expect_cached) {
  const int want_status = expect_cached ? 200 : 201;
  if (status != want_status)
    return "status " + std::to_string(status) + " (want " + std::to_string(want_status) +
           "): " + std::string(body.substr(0, 120));
  const std::string want_plan = "\"plan\": \"" + key + "\"";
  if (body.find(want_plan) == std::string_view::npos)
    return "plan identity differs from the local content hash " + key;
  const std::string want_cached = expect_cached ? "\"cached\": true" : "\"cached\": false";
  if (body.find(want_cached) == std::string_view::npos)
    return std::string("cached flag is not ") + (expect_cached ? "true" : "false");
  return "";
}

}  // namespace perfbench
