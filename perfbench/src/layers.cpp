/// \file layers.cpp
/// The traced run (`--trace 1`). It runs every layer the three workloads
/// reach — a job phase and a deploy phase against a tracing spi_served, gang
/// runs of both paper apps, and socketless calls into the serve layer —
/// records a span around each call into a layer, scrapes the program's own
/// instruments (/tenants stage rollups, /metrics, /runtime, ThreadedRunStats,
/// FlightRecorder + analyze_critical_path), and reports every per-layer
/// metric. `trace_overhead_pct` and `gen.late_us_p99` are taken for the
/// workload named on the command line. The spans are written as Chrome-trace
/// JSON to the output directory.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/worker_pool.hpp"
#include "apps/serialization.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/plan_server.hpp"
#include "serve/request.hpp"
#include "wl_deploy.hpp"
#include "wl_stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Sum of the numbers following every occurrence of `key` in `text`.
double sum_after(const std::string& text, const std::string& key) {
  double total = 0.0;
  for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at + 1))
    total += std::strtod(text.c_str() + at + key.size(), nullptr);
  return total;
}

/// Sum of the values of every Prometheus sample of `family`.
double prom_sum(const std::string& text, const std::string& family) {
  double total = 0.0;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    const std::string_view line(text.data() + at, eol - at);
    if (line.substr(0, family.size()) == family &&
        (line.size() > family.size() && (line[family.size()] == '{' || line[family.size()] == ' '))) {
      const std::size_t space = line.rfind(' ');
      total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
    }
    at = eol + 1;
  }
  return total;
}

double mean_ms(const std::map<std::string, SpanStats>& roll, const std::string& name) {
  const auto it = roll.find(name);
  return it == roll.end() || it->second.count == 0 ? 0.0 : it->second.self_ns / static_cast<double>(it->second.count) * 1e-6;
}

std::int64_t count_of(const std::map<std::string, SpanStats>& roll, const std::string& name) {
  const auto it = roll.find(name);
  return it == roll.end() ? 0 : it->second.count;
}

/// Job spans: the request root [due, reply] tiled by the generator's
/// lateness [due, sent] and the HTTP round trip [sent, reply].
void record_job_spans(const std::vector<JobOutcome>& outcomes, std::int64_t first_request, SpanRecorder& spans) {
  std::int64_t id = first_request;
  for (const JobOutcome& o : outcomes) {
    if (o.done_ns == 0) continue;
    const std::int64_t root = spans.add("job", o.due_ns, o.done_ns, -1, id, 0);
    spans.add("gen.late", o.due_ns, o.sent_ns, root, id, 0);
    spans.add("http.roundtrip", o.sent_ns, o.done_ns, root, id, 0);
    ++id;
  }
}

struct JobLayers {
  double cpu_us_per_job = 0.0;
  double late_p99_us = 0.0;
};

/// Traced daemon under the reference job rate; scrapes /tenants and
/// /metrics for the serve-layer stage breakdown.
JobLayers traced_jobs(const BenchOptions& options, double seconds, SpanRecorder& spans, RunResult& result) {
  const auto served = start_served(options, true, {}, "traced-jobs");
  const JobPool pool = make_job_pool(options.seed, kTenants, 256, 16);
  const int conns = job_connections(options);
  (void)job_phase(*served, pool, options.seed + 1, kJobReferenceRate, 0.3, conns, "traced_warmup", result);
  const HttpReply before = HttpConn(served->port()).get("/tenants");
  const std::string metrics_before = HttpConn(served->port()).get("/metrics").body;
  std::vector<JobOutcome> outcomes;
  const double cpu0 = served->cpu_s();
  const PhaseStats s = job_phase(*served, pool, options.seed + 2, kJobReferenceRate, seconds, conns,
                                 "traced_jobs", result, &outcomes);
  const double cpu = served->cpu_s() - cpu0;
  const std::string tenants = HttpConn(served->port()).get("/tenants").body;
  const std::string metrics = HttpConn(served->port()).get("/metrics").body;
  record_job_spans(outcomes, 0, spans);

  // Stage means per request over this phase only (rollups are cumulative).
  const auto delta = [&](const std::string& key) { return sum_after(tenants, key) - sum_after(before.body, key); };
  const double requests = delta("\"requests\": ");
  const auto stage_us = [&](const char* stage) {
    return requests > 0 ? delta(std::string("\"") + stage + "\": {\"ns_total\": ") / requests * 1e-3 : 0.0;
  };
  const auto n = static_cast<std::int64_t>(requests);
  double roundtrip_us = 0.0;
  std::int64_t done = 0;
  for (const JobOutcome& o : outcomes)
    if (o.done_ns != 0) {
      roundtrip_us += static_cast<double>(o.done_ns - o.sent_ns) * 1e-3;
      ++done;
    }
  roundtrip_us /= static_cast<double>(std::max<std::int64_t>(1, done));
  const double server_e2e_us = requests > 0 ? delta("\"e2e\": {\"ns_total\": ") / requests * 1e-3 : 0.0;
  const double jobs = prom_sum(metrics, "spi_serve_jobs_total") - prom_sum(metrics_before, "spi_serve_jobs_total");
  const double batches =
      prom_sum(metrics, "spi_serve_batches_total") - prom_sum(metrics_before, "spi_serve_batches_total");

  result.add("http.unattributed_us", roundtrip_us - server_e2e_us, "us", done);
  result.add("serve.admission_us", stage_us("admission"), "us", n);
  result.add("serve.queue_us", stage_us("queue"), "us", n);
  result.add("serve.batch_us", stage_us("batch"), "us", n);
  result.add("serve.exec_us", stage_us("exec"), "us", n);
  result.add("serve.reply_us", stage_us("reply"), "us", n);
  result.add("serve.jobs_per_batch", batches > 0 ? jobs / batches : 0.0, "count", static_cast<std::int64_t>(batches));
  result.add("serve.rejected_frac", s.sent > 0 ? static_cast<double>(s.rejected) / static_cast<double>(s.sent) : 0.0,
             "frac", s.sent);
  return {cpu / static_cast<double>(std::max<std::int64_t>(1, s.ok)) * 1e6, s.late_p99_us};
}

/// Same schedule against a --no-trace daemon: the untraced CPU per job.
double untraced_job_cpu(const BenchOptions& options, double seconds, RunResult& result) {
  const auto served = start_served(options, false, {}, "untraced-jobs");
  const JobPool pool = make_job_pool(options.seed, kTenants, 256, 16);
  const int conns = job_connections(options);
  (void)job_phase(*served, pool, options.seed + 1, kJobReferenceRate, 0.3, conns, "untraced_warmup", result);
  const double cpu0 = served->cpu_s();
  const PhaseStats s =
      job_phase(*served, pool, options.seed + 2, kJobReferenceRate, seconds, conns, "untraced_jobs", result);
  return (served->cpu_s() - cpu0) / static_cast<double>(std::max<std::int64_t>(1, s.ok)) * 1e6;
}

struct DeployLayers {
  double p50_ms = 0.0;
  double late_p99_us = 0.0;
};

DeployLayers traced_deploy(const BenchOptions& options, double seconds, SpanRecorder& spans, RunResult& result) {
  const std::vector<std::string> extra{"--plan-cache", std::to_string(kDeployCacheCapacity)};
  const auto served = start_served(options, true, extra, "traced-deploy");
  const DeployStats d = run_deploy_phase(options, *served, seconds, &spans, result);
  const std::string runtime = HttpConn(served->port()).get("/runtime").body;
  const double hits = sum_after(runtime, "\"hits\": ");
  const double evictions = sum_after(runtime, "\"evictions\": ");
  if (static_cast<std::int64_t>(evictions) != d.model_evictions)
    result.fail("plan cache evicted " + std::to_string(static_cast<std::int64_t>(evictions)) +
                " plans, the LRU model predicts " + std::to_string(d.model_evictions));

  const auto roll = spans.rollup();
  for (const char* stage : {"dataflow.vts", "dataflow.schedule", "sched.sync", "core.protocol", "core.emit",
                            "core.recompile", "core.plan_to_json"})
    result.add(std::string(stage) + "_ms", mean_ms(roll, stage), "ms", count_of(roll, stage));
  result.add("core.recompile_incremental_frac",
             d.recompile_attempts > 0
                 ? static_cast<double>(d.recompile_incremental) / static_cast<double>(d.recompile_attempts)
                 : 0.0,
             "frac", d.recompile_attempts);
  result.add("core.plan_json_mb", d.serialized > 0 ? d.json_bytes / static_cast<double>(d.serialized) / 1e6 : 0.0,
             "MB", d.serialized);
  result.add("http.plan_post_ms", mean_ms(roll, "http.plan_post"), "ms", count_of(roll, "http.plan_post"));
  result.add("serve.plan_cache_hit_frac", d.deploys > 0 ? hits / static_cast<double>(d.deploys) : 0.0, "frac",
             d.deploys);
  result.add("serve.plan_cache_evictions", evictions, "count", d.deploys);
  result.add("serve.job_stall_ms", d.job_stall_ms, "ms", static_cast<std::int64_t>(d.background.sent));
  return {quantile(d.latencies_ms, 0.5), d.background.late_p99_us};
}

double untraced_deploy_p50(const BenchOptions& options, double seconds, RunResult& result) {
  const std::vector<std::string> extra{"--plan-cache", std::to_string(kDeployCacheCapacity)};
  const auto served = start_served(options, false, extra, "untraced-deploy");
  const DeployStats d = run_deploy_phase(options, *served, seconds, nullptr, result);
  return quantile(d.latencies_ms, 0.5);
}

/// Wires ErrorGenApp's per-PE computes (send frame section, send
/// coefficients, actor D's prediction error, receive errors) onto `gang`,
/// finding actors and edges by name in the plan. Errors land in `result`.
void wire_speech(spi::core::JobInstance& gang, const spi::apps::ErrorGenApp& app,
                 const std::vector<double>& frame, const std::vector<double>& coeffs, std::vector<double>& result) {
  const df::Graph& g = gang.plan().vts.graph;
  const auto actor = [&g](const std::string& name) {
    for (std::size_t a = 0; a < g.actor_count(); ++a)
      if (g.actor(static_cast<spi::df::ActorId>(a)).name == name) return static_cast<spi::df::ActorId>(a);
    throw std::runtime_error("speech plan has no actor " + name);
  };
  const auto edge = [&g](spi::df::ActorId src, spi::df::ActorId snk) {
    for (std::size_t e = 0; e < g.edge_count(); ++e)
      if (g.edge(static_cast<spi::df::EdgeId>(e)).src == src && g.edge(static_cast<spi::df::EdgeId>(e)).snk == snk)
        return static_cast<spi::df::EdgeId>(e);
    throw std::runtime_error("speech plan has no such edge");
  };
  for (std::int32_t i = 0; i < app.pe_count(); ++i) {
    const std::string n = std::to_string(i);
    const auto send_frame = actor("SendFrame" + n), send_coeff = actor("SendCoef" + n), d = actor("D" + n),
               recv = actor("RecvErr" + n);
    const auto frame_edge = edge(send_frame, d), coeff_edge = edge(send_coeff, d), err_edge = edge(d, recv);
    const auto sec = app.section(i, frame.size(), coeffs.size());
    gang.set_compute(send_frame, [&frame, sec, frame_edge](spi::core::FiringContext& ctx) {
      const std::span<const double> shipped(frame.data() + sec.begin - sec.history, sec.history + sec.count);
      ctx.outputs[ctx.output_index(frame_edge)] = {spi::apps::pack_f64(shipped)};
    });
    gang.set_compute(send_coeff, [&coeffs, coeff_edge](spi::core::FiringContext& ctx) {
      ctx.outputs[ctx.output_index(coeff_edge)] = {spi::apps::pack_f64(coeffs)};
    });
    gang.set_compute(d, [sec, frame_edge, coeff_edge, err_edge](spi::core::FiringContext& ctx) {
      const auto samples = spi::apps::unpack_f64(ctx.inputs[ctx.input_index(frame_edge)][0]);
      const auto c = spi::apps::unpack_f64(ctx.inputs[ctx.input_index(coeff_edge)][0]);
      ctx.outputs[ctx.output_index(err_edge)] = {
          spi::apps::pack_f64(spi::dsp::prediction_error(samples, c, sec.history, sec.count))};
    });
    gang.set_compute(recv, [&result, sec, err_edge](spi::core::FiringContext& ctx) {
      const auto errors = spi::apps::unpack_f64(ctx.inputs[ctx.input_index(err_edge)][0]);
      std::copy(errors.begin(), errors.end(), result.begin() + static_cast<std::ptrdiff_t>(sec.begin));
    });
  }
}

/// Colocated baselines, one gang run with ThreadedRunStats and the flight
/// recorder, and the DSP kernels standalone. Returns the flight-recorder
/// overhead on the gang's time per iteration, in percent.
double traced_stream(const BenchOptions& options, SpanRecorder& spans, RunResult& result) {
  const int pes = stream_pes();
  const StreamApps apps(pes);
  const StreamInputs in = make_stream_inputs(options.seed, apps);
  const auto& plan = apps.speech.system().plan();
  constexpr std::size_t kIters = 400;

  // Colocated: the calling thread walks the PASS, one job per iteration.
  const std::vector<spi::apps::ErrorGenApp::SpeechJobSpec> jobs(kIters, {in.speech[0].frame, in.speech[0].coeffs});
  spi::core::JobInstance speech_instance(plan);
  std::int64_t t0 = now_ns();
  const auto colocated = apps.speech.compute_errors_batch(jobs, speech_instance);
  std::int64_t t1 = now_ns();
  spans.add("core.speech_colocated", t0, t1, -1, -1, 2);
  if (colocated.back() != in.speech[0].expected) result.fail("colocated speech output differs from its reference");
  result.add("core.speech_colocated_us_per_iter", static_cast<double>(t1 - t0) * 1e-3 / kIters, "us",
             static_cast<std::int64_t>(kIters));

  spi::core::JobInstance particle_instance(apps.particle.system().plan());
  const std::vector<spi::apps::ParticleFilterApp::ParticleJobSpec> track{
      {in.trajectories[0], apps.particle.params().seed}};
  t0 = now_ns();
  const auto tracked = apps.particle.track_batch(track, particle_instance);
  t1 = now_ns();
  spans.add("core.particle_colocated", t0, t1, -1, -1, 2);
  if (tracked.front().estimates != in.expected_estimates[0]) result.fail("colocated particle estimates differ");
  const auto steps = static_cast<double>(in.trajectories[0].observations.size());
  result.add("core.particle_colocated_us_per_iter", static_cast<double>(t1 - t0) * 1e-3 / steps, "us",
             static_cast<std::int64_t>(steps));

  // Gang runs of the speech plan with the app's computes, with the flight
  // recorder attached and armed, and without it, interleaved.
  spi::core::JobInstance gang(plan);
  std::vector<double> gang_errors(in.speech[0].frame.size(), 0.0);
  wire_speech(gang, apps.speech, in.speech[0].frame, in.speech[0].coeffs, gang_errors);
  spi::core::WorkerPool pool(static_cast<std::size_t>(plan.proc_count));
  spi::obs::FlightRecorder flight(plan.proc_count);
  spi::core::RunOptions run;
  run.iterations = static_cast<std::int64_t>(kIters);
  std::vector<double> armed_us, bare_us;
  spi::obs::FlightLog log;
  spi::core::ThreadedRunStats stats;
  for (int k = 0; k < 10; ++k) {
    const bool armed = k % 2 == 0;
    gang.set_flight_recorder(armed ? &flight : nullptr);
    flight.set_armed(armed);
    flight.discard_all();
    t0 = now_ns();
    gang.run(pool, run);
    t1 = now_ns();
    spans.add(armed ? "core.gang_run.flight" : "core.gang_run", t0, t1, -1, -1, 2);
    (armed ? armed_us : bare_us).push_back(static_cast<double>(t1 - t0) * 1e-3 / kIters);
    if (armed) log = flight.collect();
    else stats = gang.stats();
    if (gang_errors != in.speech[0].expected) result.fail("traced speech gang output differs from the colocated run");
  }
  std::fprintf(stderr, "traced run: speech gang %.2f us/iter with the flight recorder, %.2f without\n",
               median(armed_us), median(bare_us));
  const auto n_iters = static_cast<double>(kIters);
  result.add("core.blocks_per_iter", static_cast<double>(stats.producer_blocks + stats.consumer_blocks) / n_iters,
             "count", static_cast<std::int64_t>(kIters));
  result.add("core.block_us_per_iter",
             static_cast<double>(stats.producer_block_micros + stats.consumer_block_micros) / n_iters, "us",
             static_cast<std::int64_t>(kIters));
  result.add("core.messages_per_iter", static_cast<double>(stats.messages) / n_iters, "count",
             static_cast<std::int64_t>(kIters));
  result.add("core.bytes_per_iter", static_cast<double>(stats.payload_bytes) / n_iters, "bytes",
             static_cast<std::int64_t>(kIters));

  // Critical path. The plan's MCM is in model cycles; one cycle is scaled
  // to the measured mean nanoseconds per modeled cycle of this run.
  const spi::obs::CriticalPathReport raw = spi::obs::analyze_critical_path(log);
  double compute_ns = 0.0;
  for (const auto& actor : raw.actors) compute_ns += static_cast<double>(actor.compute);
  double cycles_per_iter = 0.0;
  for (const auto& program : plan.programs)
    for (const auto& step : program) cycles_per_iter += static_cast<double>(plan.vts.graph.actor(step.actor).exec_cycles);
  spi::obs::AnalyzeOptions analyze;
  analyze.predicted_mcm = plan.predicted_mcm();
  analyze.mcm_scale = raw.iterations_observed > 0 && cycles_per_iter > 0
                          ? compute_ns / (static_cast<double>(raw.iterations_observed) * cycles_per_iter)
                          : 1.0;
  const spi::obs::CriticalPathReport cp = spi::obs::analyze_critical_path(log, analyze);
  const double cp_len = static_cast<double>(std::max<std::int64_t>(1, cp.cp_length));
  result.add("core.cp_compute_frac", static_cast<double>(cp.cp_compute) / cp_len, "frac", cp.events);
  result.add("core.cp_blocked_frac", static_cast<double>(cp.cp_blocked) / cp_len, "frac", cp.events);
  result.add("core.period_over_mcm", cp.period_ratio, "ratio", cp.iterations_observed);

  // The kernels standalone on the same inputs: actor D's prediction error
  // over the whole frame, and one sequential particle-filter step.
  const spi::apps::SpeechCompressor compressor(apps.speech.params());
  t0 = now_ns();
  for (std::size_t k = 0; k < kIters; ++k)
    if (compressor.frame_errors(in.speech[0].frame, in.speech[0].coeffs).size() != in.speech[0].frame.size())
      result.fail("frame_errors returned a wrong length");
  t1 = now_ns();
  spans.add("dsp.speech_kernel", t0, t1, -1, -1, 2);
  result.add("dsp.speech_kernel_us_per_iter", static_cast<double>(t1 - t0) * 1e-3 / kIters, "us",
             static_cast<std::int64_t>(kIters));
  spi::dsp::ParticleFilter filter(apps.particle.params().particles, apps.particle.params().model,
                                  apps.particle.params().seed);
  t0 = now_ns();
  for (const double obs : in.trajectories[0].observations) (void)filter.step(obs);
  t1 = now_ns();
  spans.add("dsp.particle_kernel", t0, t1, -1, -1, 2);
  result.add("dsp.particle_kernel_us_per_iter", static_cast<double>(t1 - t0) * 1e-3 / steps, "us",
             static_cast<std::int64_t>(steps));
  return (median(armed_us) / median(bare_us) - 1.0) * 100.0;
}

/// Socketless serve-layer calls: PlanServer::handle_burst on the job
/// bursts, the request-body field scans, the sequential speech reference,
/// and ExecutablePlan::from_json on deploy-sized plans.
void socketless_probes(const BenchOptions& options, SpanRecorder& spans, RunResult& result) {
  const JobPool pool = make_job_pool(options.seed, 1, 256, 16);
  SeededRng rng(options.seed ^ 0x50524f42ull);
  const std::vector<Burst> bursts = make_schedule(rng, pool, 1000.0, 1.0, 1, kParticleFrac);
  const auto body_of = [&](std::uint32_t j) {
    const std::string& wire = pool.jobs[j].wire[0];
    return std::string_view(wire).substr(wire.find("\r\n\r\n") + 4);
  };

  spi::serve::PlanServerOptions server_options;
  server_options.trace.enabled = false;
  spi::serve::PlanServer server(server_options);
  std::int64_t jobs = 0;
  std::int64_t busy = 0;
  std::vector<spi::obs::HttpResponse> responses;
  for (const Burst& b : bursts) {
    std::vector<spi::obs::HttpRequest> requests;
    for (const std::uint32_t j : b.jobs)
      requests.push_back({"POST", "/job", "HTTP/1.1", std::string(body_of(j)), true});
    const std::int64_t t0 = now_ns();
    server.handle_burst(requests, responses);
    const std::int64_t t1 = now_ns();
    spans.add("serve.handle_burst", t0, t1, -1, -1, 3);
    busy += t1 - t0;
    for (std::size_t k = 0; k < b.jobs.size(); ++k) {
      const std::string why = check_job_reply(responses[k].status, responses[k].body, pool.jobs[b.jobs[k]].expected);
      if (!why.empty()) result.fail("handle_burst: " + why);
    }
    jobs += static_cast<std::int64_t>(b.jobs.size());
  }
  result.attempted += jobs;
  result.add("serve.burst_us_per_job", static_cast<double>(busy) * 1e-3 / static_cast<double>(jobs), "us", jobs);

  // Field scans the batch handler runs per job.
  std::int64_t t0 = now_ns();
  std::size_t fields = 0;
  for (std::size_t j = 0; j < pool.jobs.size(); ++j) {
    const std::string_view body = body_of(static_cast<std::uint32_t>(j));
    fields += spi::serve::json_string_field(body, "app").has_value();
    fields += spi::serve::json_string_field(body, "tenant").has_value();
    for (const char* key : pool.jobs[j].particle ? std::vector<const char*>{"observations", "truth"}
                                                 : std::vector<const char*>{"frame", "coeffs"})
      fields += spi::serve::json_array_field(body, key).has_value();
  }
  std::int64_t t1 = now_ns();
  spans.add("serve.parse", t0, t1, -1, -1, 3);
  if (fields != 4 * pool.jobs.size()) result.fail("json field scan missed a field of a job body");
  result.add("serve.parse_us_per_job", static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(pool.jobs.size()),
             "us", static_cast<std::int64_t>(pool.jobs.size()));

  // The sequential reference of every speech job.
  t0 = now_ns();
  for (const std::uint32_t j : pool.speech) {
    const PoolJob& job = pool.jobs[j];
    const spi::apps::SpeechCompressor reference(
        {.frame_size = job.frame.size(), .max_frame_size = 256, .order = job.coeffs.size(), .max_order = 8});
    if (speech_reply(reference.frame_errors(job.frame, job.coeffs)) != job.expected)
      result.fail("frame_errors is not deterministic");
  }
  t1 = now_ns();
  spans.add("dsp.frame_errors", t0, t1, -1, -1, 3);
  result.add("dsp.frame_errors_us_per_job",
             static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(pool.speech.size()), "us",
             static_cast<std::int64_t>(pool.speech.size()));

  // Plan JSON parse on log-spaced deploy sizes, identity checked.
  double parse_ms = 0.0;
  int parsed = 0;
  for (const int actors : {100, 316, 1000, 3162, 10000}) {
    GraphSpec spec;
    spec.actors = actors;
    spec.shape = static_cast<Shape>(parsed % 3);
    spec.salt = options.seed + static_cast<std::uint64_t>(actors);
    const df::Graph g = make_graph(spec);
    const spi::core::ExecutablePlan plan = spi::core::compile_plan(g, block_assignment(g, spec.procs));
    const std::string json = plan.to_json();
    t0 = now_ns();
    const spi::core::ExecutablePlan loaded = spi::core::ExecutablePlan::from_json(json);
    t1 = now_ns();
    spans.add("core.plan_from_json", t0, t1, -1, -1, 3);
    if (loaded.content_hash_hex() != plan.content_hash_hex()) result.fail("from_json changed the plan identity");
    parse_ms += static_cast<double>(t1 - t0) * 1e-6;
    ++parsed;
  }
  result.add("core.plan_from_json_ms", parse_ms / parsed, "ms", parsed);
}

}  // namespace

RunResult run_traced(const BenchOptions& options) {
  RunResult result;
  SpanRecorder spans;
  const double s = options.seconds;
  pin_self(options.gen_cores);
  const JobLayers jobs = traced_jobs(options, std::max(1.0, s * 0.2), spans, result);
  const DeployLayers deploy = traced_deploy(options, std::max(2.0, s * 0.25), spans, result);
  pin_self({});  // the gang runs get every core, as in the stream workload
  const double flight_overhead_pct = traced_stream(options, spans, result);
  socketless_probes(options, spans, result);
  pin_self(options.gen_cores);

  double overhead_pct = flight_overhead_pct;
  double late_us = jobs.late_p99_us;
  if (options.workload == "jobs") {
    overhead_pct = (jobs.cpu_us_per_job / untraced_job_cpu(options, std::max(1.0, s * 0.2), result) - 1.0) * 100.0;
  } else if (options.workload == "deploy") {
    overhead_pct = (deploy.p50_ms / untraced_deploy_p50(options, std::max(2.0, s * 0.25), result) - 1.0) * 100.0;
    late_us = deploy.late_p99_us;
  }
  result.add("trace_overhead_pct", overhead_pct, "%", 1);
  result.add("gen.late_us_p99", late_us, "us", 1);

  // Every traced request must be tiled by its child spans.
  std::int64_t roots = 0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& sp = spans.spans()[i];
    if (sp.parent != -1 || (sp.name != "job" && sp.name != "deploy")) continue;
    ++roots;
    const std::string why = check_tiling(spans.spans(), static_cast<std::int64_t>(i));
    if (!why.empty()) result.fail("span tiling: " + why);
  }
  result.count("trace.tiled_requests", roots);
  const std::string path = options.out_dir + "/trace-" + options.workload + "-" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << spans.chrome_json();
  std::fprintf(stderr, "traced run: %zu spans written to %s\n", spans.spans().size(), path.c_str());
  return result;
}

}  // namespace perfbench
