// Exact sample statistics: percentiles and CDF dumps.
//
// The evaluation reports tail percentiles (99th, 99.9th) over at most a few
// hundred thousand samples per run, so samples are kept exactly and sorted on
// demand rather than sketched.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
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

  // Percentile with nearest-rank interpolation; p in [0, 100].
  double Percentile(double p) const;

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

}  // namespace rtvirt

#endif  // SRC_SIM_STATS_H_
