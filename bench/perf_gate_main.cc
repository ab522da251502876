// perf_gate: diff a fresh BENCH_*.json against a committed baseline.
//
//   perf_gate <baseline.json> <fresh.json> [--scale=F]
//
// Exits 0 when every baseline metric is present and within its tolerance
// band (each metric's own tolerance times --scale; CI passes --scale=3 to
// absorb shared-runner noise), 1 on any regression or missing metric, 2 on
// usage/parse errors. See DESIGN.md §5 for the schema and how to re-baseline.

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/perf/perf_gate.h"
#include "src/perf/perf_report.h"

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  rtvirt::perf::GateOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (rtvirt::bench::PositiveDecimalFlag("perf_gate", arg, "--scale",
                                           &options.tolerance_scale)) {
      continue;
    }
    if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      std::fprintf(stderr, "usage: perf_gate <baseline.json> <fresh.json> [--scale=F]\n");
      return 2;
    }
  }
  if (baseline_path.empty() || fresh_path.empty()) {
    std::fprintf(stderr, "usage: perf_gate <baseline.json> <fresh.json> [--scale=F]\n");
    return 2;
  }
  std::optional<rtvirt::perf::PerfReport> baseline =
      rtvirt::perf::PerfReport::ParseFile(baseline_path);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "perf_gate: cannot parse baseline %s\n", baseline_path.c_str());
    return 2;
  }
  std::optional<rtvirt::perf::PerfReport> fresh =
      rtvirt::perf::PerfReport::ParseFile(fresh_path);
  if (!fresh.has_value()) {
    std::fprintf(stderr, "perf_gate: cannot parse fresh report %s\n", fresh_path.c_str());
    return 2;
  }
  rtvirt::perf::GateResult result =
      rtvirt::perf::ComparePerf(*baseline, *fresh, options, std::cout);
  return result.ok ? 0 : 1;
}
