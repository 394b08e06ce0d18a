/// \file main.cpp
/// The benchmark binary (run.py builds it and invokes it):
///
///   perfbench --workload jobs|deploy|stream --seed N --seconds S --trace 0|1
///             --bin-dir DIR --out-dir DIR [--server-cores 0,1] [--gen-cores 2,3]
///
/// Prints the run context, one line per metric, and as its last line the
/// result object {"correct", "attempted", "failed", "metrics"}. Exits 1
/// when any output was wrong or the run could not complete.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<int> parse_cores(const std::string& text) {
  std::vector<int> cores;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t comma = text.find(',', at);
    cores.push_back(std::atoi(text.substr(at, comma - at).c_str()));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return cores;
}

void print_result(const RunResult& result) {
  for (const auto& [name, value] : result.counts)
    std::printf("count %-28s %lld\n", name.c_str(), static_cast<long long>(value));
  for (const std::string& f : result.failures) std::printf("failure: %s\n", f.c_str());
  for (const Metric& m : result.metrics)
    std::printf("metric %-34s %14.6g %-6s (n=%lld)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  // The detail line: every metric with its sample count.
  std::string detail = "{\"samples\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (i != 0) detail += ", ";
    detail += json_str(result.metrics[i].name) + ": " + std::to_string(result.metrics[i].samples);
  }
  detail += "}, \"counts\": {";
  for (std::size_t i = 0; i < result.counts.size(); ++i) {
    if (i != 0) detail += ", ";
    detail += json_str(result.counts[i].first) + ": " + std::to_string(result.counts[i].second);
  }
  std::printf("%s}}\n", detail.c_str());

  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ", ";
    out += json_str(m.name) + ": {\"value\": " + fmt_double(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every option takes a value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--bin-dir") options.bin_dir = value;
    else if (key == "--out-dir") options.out_dir = value;
    else if (key == "--server-cores") options.server_cores = parse_cores(value);
    else if (key == "--gen-cores") options.gen_cores = parse_cores(value);
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (options.bin_dir.empty() || options.out_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --bin-dir, --out-dir and a positive --seconds are required\n");
    return 2;
  }
  try {
    pin_self({});  // remember the starting mask before anything narrows it
    RunResult result;
    if (options.trace) result = run_traced(options);
    else if (options.workload == "jobs") result = run_jobs(options);
    else if (options.workload == "deploy") result = run_deploy(options);
    else if (options.workload == "stream") result = run_stream(options);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    if (result.attempted < 1) result.fail("nothing was attempted");
    // End-to-end metrics are never 0; a per-layer count may be.
    for (const Metric& m : result.metrics)
      if (!options.trace && !(m.value > 0.0)) result.fail("metric " + m.name + " was not measured");
    print_result(result);
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
