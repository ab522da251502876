// Text-report helpers: aligned tables and CDF dumps matching the
// rows and series the paper's tables and figures present.

#ifndef SRC_METRICS_REPORT_H_
#define SRC_METRICS_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/metrics/resilience.h"
#include "src/sim/stats.h"

namespace rtvirt {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& out) const;

  static std::string Fmt(double v, int precision = 2);
  static std::string Pct(double fraction, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a CDF like Figure 5: `points` (value, fraction) rows.
void PrintCdf(std::ostream& out, const Samples& samples, size_t points,
              const std::string& unit);

// The standard end-of-run experiment report: a titled header followed by the
// full resilience counter table (which includes the PCPU fault/recovery and
// invariant-audit sections when those subsystems fired). Benches print this
// instead of hand-rolling their own counter dumps; Experiment::PrintReport
// fills it from the live harness.
void PrintExperimentReport(std::ostream& out, const std::string& title,
                           const ResilienceCounters& counters);

}  // namespace rtvirt

#endif  // SRC_METRICS_REPORT_H_
