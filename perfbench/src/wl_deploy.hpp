/// \file wl_deploy.hpp
/// The deploy phase, shared by the `deploy` workload and the traced run.
#pragma once

#include "workloads.hpp"

namespace perfbench {

struct DeployStats {
  std::int64_t deploys = 0;
  std::int64_t cached_acks = 0;
  std::int64_t model_evictions = 0;  ///< evictions the LRU model predicts
  std::int64_t recompile_attempts = 0;
  std::int64_t recompile_incremental = 0;
  double cpu_us_per_deploy = 0.0;  ///< deployer thread + daemon CPU
  double job_stall_ms = 0.0;       ///< longest background job delay during one POST
  double json_bytes = 0.0;         ///< plan JSON serialized (resubmits excluded)
  std::int64_t serialized = 0;
  std::vector<double> latencies_ms;
  PhaseStats background;
};

/// Runs the deployment schedule for `seconds` against `served` with the
/// background job stream beside it. With `spans`, every deployment gets a
/// span tree (compile stages, serialization, POST) and new graphs are
/// compiled stage by stage. Failures and counts go to `result`.
DeployStats run_deploy_phase(const BenchOptions& options, ServedProcess& served, double seconds,
                             SpanRecorder* spans, RunResult& result);

}  // namespace perfbench
