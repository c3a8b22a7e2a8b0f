#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace explframe {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::mean() const noexcept {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::min() const noexcept {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const noexcept {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::percentile(double p) const {
  EXPLFRAME_CHECK(p >= 0.0 && p <= 100.0);
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

ProportionCi wilson_interval(std::size_t successes, std::size_t trials,
                             double z) noexcept {
  if (trials == 0) return {0.0, 0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {p, std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace explframe
