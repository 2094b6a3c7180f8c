#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans nest strictly (they are scoped), so the closing span is the
  // innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  // Children of one parent never overlap (one thread, strict nesting), so
  // the covered part of a parent is the sum of its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    Totals& t = out[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(std::max<std::int64_t>(0, dur - child_ns[i])) *
                1e-9;
    ++t.count;
  }
  return out;
}

std::string SpanRecorder::json() const {
  std::string out = "{\"run_id\":\"" + run_id_ + "\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + s.name + "\",\"start_ns\":" +
           std::to_string(s.start_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + ",\"parent\":" +
           std::to_string(s.parent) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
