// Exact sample statistics: percentiles, histograms, CDF dumps.
//
// The evaluation reports tail percentiles (99th, 99.9th) over at most a few
// hundred thousand samples per run, so samples are kept exactly and sorted on
// demand rather than sketched.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace rtvirt {

class Samples {
 public:
  void Add(double v);
  void Clear();

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Min() const;
  double Max() const;
  double Mean() const;
  double Stddev() const;
  double Sum() const;

  // Percentile with nearest-rank interpolation; p in [0, 100].
  double Percentile(double p) const;

  // Fraction of samples <= threshold, in [0, 1].
  double FractionAtMost(double threshold) const;

  // (value, cumulative fraction) pairs at `points` evenly spaced ranks,
  // suitable for plotting a CDF like Figure 5.
  struct CdfPoint {
    double value;
    double fraction;
  };
  std::vector<CdfPoint> Cdf(size_t points) const;

  // Checkpoint accessors: the raw sample vector in its current order.
  // Restoring marks the set unsorted; the next ordered query re-sorts, which
  // yields the same bytes either way (sorting is deterministic).
  const std::vector<double>& raw_values() const { return values_; }
  void RestoreValues(std::vector<double> values) {
    values_ = std::move(values);
    sorted_ = false;
  }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double v);
  uint64_t bucket(size_t i) const { return counts_[i]; }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  uint64_t total() const { return total_; }
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;

  // Multi-line ASCII rendering (for example programs).
  std::string Render(size_t max_width) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t total_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_SIM_STATS_H_
