/// \file spans.hpp
/// The traced run's span recorder. The benchmark records a span around
/// each call it makes into a layer of the program (name, start, end,
/// parent span, request id), keeps them in memory, and writes them as
/// Chrome-trace JSON at the end. Self time of a span is its duration
/// minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the parent span, -1 = root
  std::int64_t request = -1;  ///< request id shared by one request's spans
  int tid = 0;                ///< display lane in the trace viewer
};

/// Self-time rollup of every span with one name.
struct SpanStats {
  std::int64_t count = 0;
  double self_ns = 0.0;
};

class SpanRecorder {
 public:
  /// Records a finished span; returns its id (for children's `parent`).
  std::int64_t add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = -1, std::int64_t request = -1, int tid = 0);
  /// Closes a span opened with end == start.
  void set_end(std::int64_t id, std::int64_t end_ns) { spans_.at(static_cast<std::size_t>(id)).end_ns = end_ns; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per-name count and self time.
  [[nodiscard]] std::map<std::string, SpanStats> rollup() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
};

/// Checks that the children of span `root` tile it: they start at its
/// start, end at its end, and leave no gap or overlap wider than
/// `tolerance_ns` between each other. Returns "" or the first violation.
std::string check_tiling(const std::vector<Span>& spans, std::int64_t root,
                         std::int64_t tolerance_ns = 0);

}  // namespace perfbench
