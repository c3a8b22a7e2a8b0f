// Small statistics toolkit used by the experiment harnesses: running
// mean/min/max, percentiles and binomial confidence intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace explframe {

/// Streaming (incremental) mean plus min/max and sum.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Collects samples; computes order statistics on demand.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_valid_ = false;
  }
  std::size_t count() const noexcept { return xs_.size(); }
  bool empty() const noexcept { return xs_.empty(); }
  double mean() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  /// Linear-interpolated percentile, p in [0,100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  const std::vector<double>& values() const noexcept { return xs_; }

 private:
  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

/// Wilson score interval for a binomial proportion — the right interval for
/// attack-success-rate experiments with small trial counts.
struct ProportionCi {
  double p;   ///< Point estimate successes/trials.
  double lo;  ///< Lower 95% bound.
  double hi;  ///< Upper 95% bound.
};
ProportionCi wilson_interval(std::size_t successes, std::size_t trials,
                             double z = 1.96) noexcept;

}  // namespace explframe
