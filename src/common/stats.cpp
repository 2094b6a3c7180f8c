#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace muri {

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double percentile_sorted(const std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) return xs[lo];
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double min_of(const std::vector<double>& xs) noexcept {
  double m = std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::min(m, x);
  return xs.empty() ? 0.0 : m;
}

double max_of(const std::vector<double>& xs) noexcept {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  return xs.empty() ? 0.0 : m;
}

void TimeWeightedAverage::observe(Time now, double value) {
  if (started_ && now > last_time_) {
    weighted_sum_ += last_value_ * (now - last_time_);
    total_time_ += now - last_time_;
  }
  started_ = true;
  last_time_ = now;
  last_value_ = value;
}

double TimeWeightedAverage::finalize(Time now) {
  observe(now, last_value_);
  return total_time_ > 0 ? weighted_sum_ / total_time_ : 0.0;
}

double TimeWeightedAverage::value_at(Time now) const {
  double ws = weighted_sum_;
  Duration tt = total_time_;
  if (started_ && now > last_time_) {
    ws += last_value_ * (now - last_time_);
    tt += now - last_time_;
  }
  return tt > 0 ? ws / tt : 0.0;
}

SeriesRecorder::SeriesRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 2) capacity_ = 2;
}

void SeriesRecorder::record(Time t, double value) {
  if (seen_++ % stride_ == 0) {
    points_.push_back({t, value});
    if (points_.size() >= capacity_) {
      // Thin in place: keep every other point, double the stride.
      std::vector<Point> kept;
      kept.reserve(points_.size() / 2 + 1);
      for (std::size_t i = 0; i < points_.size(); i += 2) {
        kept.push_back(points_[i]);
      }
      points_ = std::move(kept);
      stride_ *= 2;
    }
  }
}

}  // namespace muri
