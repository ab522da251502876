#include "src/sim/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rtvirt {

void Samples::Add(double v) {
  values_.push_back(v);
  sorted_ = values_.size() <= 1;
}

void Samples::Clear() {
  values_.clear();
  sorted_ = true;
}

void Samples::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Min() const {
  EnsureSorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Samples::Max() const {
  EnsureSorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Samples::Mean() const {
  return values_.empty() ? 0.0
                         : std::accumulate(values_.begin(), values_.end(), 0.0) /
                               static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  if (p <= 0.0) {
    return values_.front();
  }
  if (p >= 100.0) {
    return values_.back();
  }
  // Nearest-rank (ceil) percentile, the convention used for tail-latency SLOs:
  // the 99.9th percentile is the smallest value v such that at least 99.9% of
  // samples are <= v.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values_.size()) - 1e-9));
  if (rank == 0) {
    rank = 1;
  }
  return values_[rank - 1];
}

std::vector<Samples::CdfPoint> Samples::Cdf(size_t points) const {
  std::vector<CdfPoint> out;
  if (values_.empty() || points == 0) {
    return out;
  }
  EnsureSorted();
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(points);
    size_t rank = static_cast<size_t>(
        std::ceil(frac * static_cast<double>(values_.size()) - 1e-9));
    if (rank == 0) {
      rank = 1;
    }
    out.push_back(CdfPoint{values_[rank - 1], frac});
  }
  return out;
}

}  // namespace rtvirt
