#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace perfbench {

std::int64_t SpanRecorder::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                               std::int64_t parent, std::int64_t request, int tid) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request, tid});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanStats> SpanRecorder::rollup() const {
  // Children intervals per parent, merged to subtract their union.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SpanStats& st = out[s.name];
    ++st.count;
    st.self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::string SpanRecorder::chrome_json() const {
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (i == 0 || spans_[i].start_ns < t0) t0 = spans_[i].start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out += ",\n";
    out += "{\"name\":" + json_str(s.name) + ",\"ph\":\"X\",\"pid\":1";
    std::snprintf(buf, sizeof buf, ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f", s.tid,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    out += ",\"args\":{\"id\":" + std::to_string(i) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

std::string check_tiling(const std::vector<Span>& spans, std::int64_t root,
                         std::int64_t tolerance_ns) {
  if (root < 0 || static_cast<std::size_t>(root) >= spans.size()) return "no such span";
  const Span& r = spans[static_cast<std::size_t>(root)];
  std::vector<const Span*> kids;
  for (const Span& s : spans)
    if (s.parent == root) kids.push_back(&s);
  if (kids.empty()) return "span '" + r.name + "' has no children";
  std::sort(kids.begin(), kids.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  std::int64_t cursor = r.start_ns;
  for (const Span* k : kids) {
    const std::int64_t gap = k->start_ns - cursor;
    if (gap > tolerance_ns || gap < -tolerance_ns)
      return "'" + k->name + "' leaves a " + std::to_string(gap) + " ns " +
             (gap > 0 ? "gap" : "overlap") + " in '" + r.name + "'";
    cursor = k->end_ns;
  }
  const std::int64_t tail = r.end_ns - cursor;
  if (tail > tolerance_ns || tail < -tolerance_ns)
    return "children of '" + r.name + "' end " + std::to_string(tail) + " ns before it";
  return "";
}

}  // namespace perfbench
