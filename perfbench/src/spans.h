// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call the benchmark makes into a layer: a phase of a
// workload, one schedule() call, one HTTP request, one daemon step().
// Spans carry a name, start and end (steady-clock nanoseconds since the
// recorder was created), the index of the span that was open when they
// began, and the run id every span of one run shares. Nothing is written
// until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into SpanRecorder::spans(), -1 for a root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  // Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::string& run_id() const noexcept { return run_id_; }

  // Per span name: total and self seconds (duration minus the part of the
  // interval its children cover) and the number of spans.
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    std::int64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  // {"run_id":..., "spans":[{"name","start_ns","end_ns","parent"},...]}
  std::string json() const;

 private:
  std::int64_t now_ns() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it a no-op, which is how the untraced
// runs use the same code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
