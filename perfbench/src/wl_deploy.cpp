/// \file wl_deploy.cpp
/// Workload `deploy`: one deployer compiles seeded graphs, serializes each
/// plan and POSTs it to spi_served, starting each deployment at the next
/// slot of a fixed schedule, while a low fixed-rate open-loop job stream
/// runs beside it from the same process. New graphs and paper apps are
/// cache misses, exec retunes through IncrementalCompiler::recompile miss
/// by exec fingerprint, exact resubmits hit; the daemon's plan cache is
/// small enough that LRU eviction happens.
#include "wl_deploy.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

namespace {

/// Deployment slot period and the background job rate.
constexpr std::int64_t kSlotNs = 60'000'000;
constexpr double kBackgroundRate = 300.0;
/// Seconds of the run kept for daemon start-up and teardown.
constexpr double kReserveS = 3.5;

/// Compiles a new synthetic graph stage by stage, each stage a span under
/// `parent`; `t` enters as the compile start and leaves as the start of
/// the plan-emission stage.
spi::core::ExecutablePlan compile_staged(const df::Graph& g, const sched::Assignment& a,
                                         SpanRecorder& spans, std::int64_t parent, std::int64_t request,
                                         std::int64_t& t) {
  namespace core = spi::core;
  const core::SpiSystemOptions opts;
  const auto mark = [&](const char* name) {
    const std::int64_t end = now_ns();
    spans.add(name, t, end, parent, request, 1);
    t = end;
  };
  core::VtsStage vts = core::run_vts_stage(g, opts);
  mark("dataflow.vts");
  core::ScheduleStage sched_stage = core::run_schedule_stage(vts, a, opts);
  mark("dataflow.schedule");
  core::SyncStage sync = core::run_sync_stage(sched_stage, a, opts);
  mark("sched.sync");
  core::ProtocolStage protocol = core::run_protocol_stage(vts, sched_stage, sync);
  mark("core.protocol");
  // The caller closes the emit span when it has the plan in hand (t is
  // left at the emit stage's start).
  return core::plan_emit(g, a, opts, std::move(vts), std::move(sched_stage), std::move(sync), std::move(protocol));
}

}  // namespace

DeployStats run_deploy_phase(const BenchOptions& options, ServedProcess& served, double seconds,
                             SpanRecorder* spans, RunResult& result) {
  DeployStats out;
  const int count = std::max(8, static_cast<int>(seconds * 1e9 / static_cast<double>(kSlotNs)));
  const std::vector<DeployStep> plan = make_deploy_plan(options.seed, count);

  // Background jobs: one connection, one tenant, low fixed rate.
  const JobPool pool = make_job_pool(options.seed ^ 0xb6ull, 1, 64, 4);
  SeededRng bg_rng(options.seed ^ 0xb6b6ull);
  const double phase_s = static_cast<double>(count) * static_cast<double>(kSlotNs) * 1e-9;
  const std::vector<Burst> schedule = make_schedule(bg_rng, pool, kBackgroundRate, phase_s, 1, 0.02);
  OpenLoopClient bg_client(served.port(), 1);
  HttpConn deploy_conn(served.port());

  const std::int64_t start = now_ns() + 20'000'000;
  std::vector<JobOutcome> bg_outcomes;
  std::vector<std::string> bg_errors;
  std::exception_ptr bg_error;
  // jthread: joined on every exit path, exceptions included.
  std::jthread bg([&] {
    try {
      bg_outcomes = bg_client.run(schedule, pool, start, 2'000'000'000, bg_errors);
    } catch (...) {
      bg_error = std::current_exception();
    }
  });

  LruModel lru(kDeployCacheCapacity);
  // The daemon caches its two built-in models at start-up.
  lru.insert("builtin-speech");
  lru.insert("builtin-particle");
  struct Sent {
    std::string json;
    int actors = 0;
  };
  std::map<std::string, Sent> cached;  // what the model says the daemon holds
  std::vector<double> latencies_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> post_windows;
  std::int64_t ok = 0;
  double deployer_cpu = 0.0;
  const double served_cpu0 = served.cpu_s();

  for (int i = 0; i < count; ++i) {
    const DeployStep& step = plan[static_cast<std::size_t>(i)];
    // In hand before the slot: the graph of a new deployment, the
    // compiler of a retune.
    std::optional<df::Graph> graph;
    std::optional<sched::Assignment> assignment;
    std::optional<spi::core::IncrementalCompiler> inc;
    if (step.kind == DeployStep::Kind::kNewGraph || step.kind == DeployStep::Kind::kRetune) {
      graph = make_graph(step.graph);
      assignment = block_assignment(*graph, step.graph.procs);
    }
    if (step.kind == DeployStep::Kind::kRetune) {
      inc.emplace(std::move(*graph), std::move(*assignment));
      (void)inc->compile();
    }
    sleep_until_ns(start + i * kSlotNs);
    const double cpu_t0 = thread_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::int64_t root = spans ? spans->add("deploy", t0, t0, -1, i, 1) : -1;
    std::string json;
    std::string key;
    int actors = 0;
    std::int64_t t_ser = t0;
    // Ends the compile span that began at `since` and serializes.
    const auto serialize = [&](const spi::core::ExecutablePlan& p, const char* compile_span, std::int64_t since) {
      t_ser = now_ns();
      if (spans && compile_span != nullptr) spans->add(compile_span, since, t_ser, root, i, 1);
      json = p.to_json();
      key = p.content_hash_hex();
    };
    switch (step.kind) {
      case DeployStep::Kind::kNewGraph:
        actors = step.graph.actors;
        if (spans) {
          std::int64_t emit_start = t0;
          const auto p = compile_staged(*graph, *assignment, *spans, root, i, emit_start);
          serialize(p, "core.emit", emit_start);
        } else {
          serialize(spi::core::compile_plan(*graph, *assignment), nullptr, t0);
        }
        break;
      case DeployStep::Kind::kPaperApp:
        if (step.speech_app)
          serialize(spi::apps::ErrorGenApp(step.pes, {.frame_size = 64, .max_frame_size = step.bound,
                                                      .order = 4, .max_order = 16})
                        .system()
                        .plan(),
                    "apps.compile", t0);
        else
          serialize(spi::apps::ParticleFilterApp(
                        step.pes, {.particles = 48, .max_particles = step.bound, .model = {}})
                        .system()
                        .plan(),
                    "apps.compile", t0);
        break;
      case DeployStep::Kind::kRetune: {
        actors = step.graph.actors;
        const auto n = static_cast<std::uint64_t>(inc->application().actor_count());
        serialize(inc->recompile({{static_cast<spi::df::ActorId>(step.pick % n), step.exec}}), "core.recompile", t0);
        ++out.recompile_attempts;
        if (inc->last_recompile_incremental()) ++out.recompile_incremental;
        break;
      }
      case DeployStep::Kind::kResubmit: {
        // The cached plan nearest in size to this step's stratum.
        const Sent* best = nullptr;
        for (const auto& [k, sent] : cached)
          if (best == nullptr || std::abs(sent.actors - step.graph.actors) < std::abs(best->actors - step.graph.actors)) {
            best = &sent;
            key = k;
          }
        json = best->json;
        actors = best->actors;
        break;
      }
    }
    const std::int64_t t_post = now_ns();
    if (spans)
      spans->add(step.kind == DeployStep::Kind::kResubmit ? "deploy.select" : "core.plan_to_json", t_ser,
                 t_post, root, i, 1);
    if (step.kind != DeployStep::Kind::kResubmit) {
      out.json_bytes += static_cast<double>(json.size());
      ++out.serialized;
    }
    const HttpReply reply = deploy_conn.roundtrip(http_post("/plan", json));
    const std::int64_t t1 = now_ns();
    deployer_cpu += thread_cpu_s() - cpu_t0;
    if (spans) {
      spans->add("http.plan_post", t_post, t1, root, i, 1);
      spans->set_end(root, t1);
    }
    post_windows.emplace_back(t_post, t1);

    const bool expect_cached = lru.contains(key);
    const std::string why = check_plan_ack(reply.status, reply.body, key, expect_cached);
    if (why.empty()) {
      ++ok;
      latencies_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.cached_acks += expect_cached ? 1 : 0;
    } else {
      result.fail("deploy " + std::to_string(i) + ": " + why);
    }
    out.model_evictions += lru.insert(key);
    cached[key] = {std::move(json), actors};
    for (auto it = cached.begin(); it != cached.end();)
      it = lru.contains(it->first) ? std::next(it) : cached.erase(it);
  }
  const double deploy_cpu = deployer_cpu + served.cpu_s() - served_cpu0;
  bg.join();
  if (bg_error) std::rethrow_exception(bg_error);

  out.deploys = count;
  out.latencies_ms = latencies_ms;
  out.cpu_us_per_deploy = deploy_cpu / static_cast<double>(std::max(1, count)) * 1e6;
  out.background = summarize(bg_outcomes);
  // Longest background-job delay among jobs due during one POST.
  for (const JobOutcome& o : bg_outcomes) {
    if (o.done_ns == 0) continue;
    for (const auto& [a, b] : post_windows)
      if (o.due_ns >= a && o.due_ns < b)
        out.job_stall_ms = std::max(out.job_stall_ms, static_cast<double>(o.done_ns - o.due_ns) * 1e-6);
  }
  account(result, "background", out.background, bg_errors);
  result.attempted += count;
  result.count("deploy.sent", count);
  result.count("deploy.succeeded", ok);
  result.count("deploy.failed", count - ok);
  result.count("deploy.rejected", 0);
  result.count("deploy.cached_acks", out.cached_acks);
  return out;
}

RunResult run_deploy(const BenchOptions& options) {
  RunResult result;
  pin_self(options.gen_cores);
  std::unique_ptr<ServedProcess> served;
  const std::vector<std::string> extra{"--plan-cache", std::to_string(kDeployCacheCapacity)};
  const double setup_s = served_setup(options, false, extra, kServedSetupReps, served);
  const DeployStats d = run_deploy_phase(options, *served, std::max(2.0, options.seconds - kReserveS),
                                         nullptr, result);
  double total_s = 0.0;
  for (const double ms : d.latencies_ms) total_s += ms * 1e-3;
  std::fprintf(stderr, "deploy: %lld deployments, p50 %.2f ms p90 %.2f ms; background p99 %.0f us\n",
               static_cast<long long>(d.deploys), quantile(d.latencies_ms, 0.5),
               quantile(d.latencies_ms, 0.9), d.background.p99_us);
  const auto n = static_cast<std::int64_t>(d.latencies_ms.size());
  result.add("setup_s", setup_s, "s", kServedSetupReps);
  result.add("ops_per_s", total_s > 0 ? static_cast<double>(n) / total_s : 0.0, "1/s", n);
  result.add("p50_us", quantile(d.latencies_ms, 0.5) * 1e3, "us", n);
  result.add("p90_us", quantile(d.latencies_ms, 0.9) * 1e3, "us", n);
  result.add("cpu_us_per_op", d.cpu_us_per_deploy, "us", d.deploys);
  return result;
}

}  // namespace perfbench
