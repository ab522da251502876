#include "src/metrics/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

namespace rtvirt {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TablePrinter::Pct(double fraction, int precision) {
  return Fmt(fraction * 100.0, precision) + "%";
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "  ";
    for (size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    out << "\n";
  };
  print_row(headers_);
  size_t total = 2;
  for (size_t w : width) {
    total += w + 2;
  }
  out << "  " << std::string(total - 2, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintCdf(std::ostream& out, const Samples& samples, size_t points,
              const std::string& unit) {
  out << "  value(" << unit << ")  cumulative_fraction\n";
  for (const Samples::CdfPoint& pt : samples.Cdf(points)) {
    out << "  " << TablePrinter::Fmt(pt.value) << "  " << TablePrinter::Fmt(pt.fraction, 4)
        << "\n";
  }
}

void PrintExperimentReport(std::ostream& out, const std::string& title,
                           const ResilienceCounters& counters) {
  out << "== experiment report: " << title << " ==\n";
  PrintResilience(out, counters);
}

}  // namespace rtvirt
