/// \file inputs.hpp
/// Seeded inputs and the output checkers. Everything the program under
/// test sees is produced here from the run's seed: job bodies with the
/// replies the sequential references predict, open-loop send schedules,
/// and the dataflow graphs the deployer compiles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "dataflow/graph.hpp"
#include "sched/assignment.hpp"

namespace perfbench {

namespace df = spi::df;
namespace sched = spi::sched;

/// The built-in model bounds of spi_served (PlanServerOptions defaults):
/// job inputs span them, so every VTS size the server accepts is used.
inline constexpr std::size_t kFrameSizes[] = {32, 64, 128, 256};
inline constexpr std::size_t kOrders[] = {4, 8};
inline constexpr std::size_t kParticleSteps[] = {8, 16};

/// One job with its request bytes (one copy per tenant) and the exact
/// reply body the sequential reference predicts.
struct PoolJob {
  std::vector<std::string> wire;  ///< HTTP request, indexed by tenant
  std::string expected;           ///< expected 200 body
  bool particle = false;
  std::vector<double> frame, coeffs;  ///< speech inputs
};

struct JobPool {
  std::vector<PoolJob> jobs;
  std::vector<std::uint32_t> speech;
  std::vector<std::uint32_t> particle;
};

/// Explicit speech jobs (frames of dsp::synthetic_speech, coefficients
/// from SpeechCompressor::frame_coefficients, expected errors from
/// SpeechCompressor::frame_errors) and explicit particle jobs (expected
/// estimates from ParticleFilterApp::track on the server's model shape).
JobPool make_job_pool(std::uint64_t seed, int tenants, std::size_t speech_jobs,
                      std::size_t particle_jobs);

/// The HTTP/1.1 keep-alive request for one POST (no Expect header).
std::string http_post(std::string_view path, std::string_view body);

/// Reply body the server sends for these speech errors / track result.
std::string speech_reply(const std::vector<double>& errors);

/// One pipelined burst of jobs due at `due_ns` (relative to the start of
/// its phase) on connection `conn`, which carries tenant `conn`.
struct Burst {
  std::int64_t due_ns = 0;
  int conn = 0;
  std::vector<std::uint32_t> jobs;
};

/// Open-loop arrivals: Poisson burst arrivals whose sizes follow
/// P(b) ~ 1/b^2 on 1..16, each job a particle job with `particle_frac`
/// probability, the rest speech; connections round-robin at random.
std::vector<Burst> make_schedule(SeededRng& rng, const JobPool& pool, double jobs_per_s,
                                 double seconds, int connections, double particle_frac,
                                 int max_burst = 16);

/// Synthetic graph shapes of the deploy workload.
enum class Shape : std::uint8_t { kChainFeedback, kDfsTree, kSccBlocks };

struct GraphSpec {
  Shape shape = Shape::kChainFeedback;
  int actors = 100;
  int procs = 4;
  std::uint64_t salt = 0;  ///< varies exec cycles, so every graph is new
};

df::Graph make_graph(const GraphSpec& spec);
/// Contiguous blocks of actors per processor (a locality-friendly map).
sched::Assignment block_assignment(const df::Graph& graph, int procs);

/// One deployment of the deploy workload.
struct DeployStep {
  enum class Kind : std::uint8_t { kNewGraph, kPaperApp, kRetune, kResubmit } kind{};
  /// kNewGraph: the graph. kRetune: the graph whose compiler is in hand
  /// before the slot. kResubmit: graph.actors is the size to resubmit
  /// (the cached plan nearest to it is sent again).
  GraphSpec graph;
  bool speech_app = true; ///< kPaperApp: ErrorGenApp or ParticleFilterApp
  int pes = 2;            ///< kPaperApp
  std::size_t bound = 0;  ///< kPaperApp: max frame size / max particles
  std::int64_t exec = 0;  ///< kRetune: the new exec cycles
  std::uint64_t pick = 0; ///< kRetune: which actor is retuned
};

/// `count` deployments: 55% new synthetic graphs, 10% paper apps at other
/// PE counts and bounds, 20% exec retunes, 15% exact resubmits. Graph
/// sizes are log-uniform from 100 to 10k actors, stratified per kind so
/// every seed covers the range the same way. The first step is always a
/// new graph.
std::vector<DeployStep> make_deploy_plan(std::uint64_t seed, int count);

/// The LRU plan-cache model the deploy checker predicts `cached` with:
/// the same rule as serve::PlanCache (insert and re-insert both freshen).
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Inserts or freshens; returns the number of entries evicted.
  int insert(const std::string& key);

 private:
  std::size_t capacity_;
  std::vector<std::string> keys_;  ///< most recent first
};

/// "" when a job reply is the expected 200 body, else why not.
std::string check_job_reply(int status, std::string_view body, const std::string& expected);
/// "" when a POST /plan reply names `key` with the expected cached flag
/// and status (201 new, 200 cached), else why not.
std::string check_plan_ack(int status, std::string_view body, const std::string& key,
                           bool expect_cached);

}  // namespace perfbench
