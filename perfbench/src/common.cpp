#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

namespace perfbench {

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeededRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::int64_t SeededRng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

double SeededRng::exponential(double mean) { return -mean * std::log1p(-uniform()); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  const std::int64_t wait = deadline_ns - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

void pin_self(const std::vector<int>& cores) {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ::sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  cpu_set_t set = initial;
  if (!cores.empty()) {
    CPU_ZERO(&set);
    for (const int c : cores) CPU_SET(c, &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void RunResult::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

void RunResult::count(const std::string& name, std::int64_t value) {
  for (auto& [n, v] : counts)
    if (n == name) {
      v += value;
      return;
    }
  counts.emplace_back(name, value);
}

std::string fmt_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_str(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
