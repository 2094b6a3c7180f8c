// Summary statistics used by the metrics collector and the bench tables:
// mean, percentiles (tail JCT is the 99th percentile in the paper),
// plus a small time-weighted average accumulator for utilization curves.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace muri {

// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& xs) noexcept;

// Sample standard deviation; 0 for fewer than two samples.
double stddev(const std::vector<double>& xs) noexcept;

// p-th percentile with linear interpolation, p in [0, 100].
// Returns 0 for an empty sample. Does not require sorted input.
double percentile(std::vector<double> xs, double p);

// percentile() over a sample already sorted ascending, so several
// quantiles of one sample cost one sort.
double percentile_sorted(const std::vector<double>& sorted, double p);

double min_of(const std::vector<double>& xs) noexcept;
double max_of(const std::vector<double>& xs) noexcept;

// Accumulates a piecewise-constant signal x(t) and reports its
// time-weighted average over the observed span. Used for average queue
// length, blocking index and resource utilization (§6.2, Fig. 8).
class TimeWeightedAverage {
 public:
  // Records that the signal takes `value` from `now` onward.
  void observe(Time now, double value);

  // Closes the signal at `now` and returns the time-weighted mean.
  // Returns 0 if no interval was observed.
  double finalize(Time now);

  // Mean over what has been observed so far without closing.
  double value_at(Time now) const;

  bool empty() const noexcept { return !started_; }

 private:
  bool started_ = false;
  Time last_time_ = 0;
  double last_value_ = 0;
  double weighted_sum_ = 0;
  Duration total_time_ = 0;
};

// A fixed-capacity reservoir of (time, value) samples for plotting
// time series without unbounded memory. Keeps every k-th sample once
// capacity is hit (k doubles each time), preserving temporal order.
class SeriesRecorder {
 public:
  explicit SeriesRecorder(std::size_t capacity = 4096);

  void record(Time t, double value);

  struct Point {
    Time time;
    double value;
  };
  const std::vector<Point>& points() const noexcept { return points_; }

 private:
  std::size_t capacity_;
  std::size_t stride_ = 1;
  std::size_t seen_ = 0;
  std::vector<Point> points_;
};

}  // namespace muri
