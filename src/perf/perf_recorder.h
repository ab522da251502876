// Phase-structured performance measurement.
//
// A PerfRecorder brackets named phases of a run with a monotonic timer and
// the process-wide allocation counters (alloc_hooks), and lets the driver
// attach named counters (events popped, schedule ops, replans…) to each
// phase. PhaseResults feed a PerfReport (perf_report.h), which serializes
// them into the committed BENCH_*.json schema the perf_gate comparator
// enforces.

#ifndef SRC_PERF_PERF_RECORDER_H_
#define SRC_PERF_PERF_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/perf/alloc_hooks.h"

namespace rtvirt::perf {

// Wall clock (CLOCK_MONOTONIC) in nanoseconds.
uint64_t MonotonicNowNs();

// Peak resident set size (VmHWM from /proc/self/status) in KiB; 0 when the
// proc file is unavailable.
uint64_t PeakRssKb();

struct PhaseResult {
  std::string name;
  uint64_t ops = 0;       // Work items the caller declared for the phase.
  uint64_t wall_ns = 0;
  uint64_t allocs = 0;       // operator new calls during the phase.
  uint64_t alloc_bytes = 0;  // Bytes requested during the phase.
  std::map<std::string, double> counters;  // Named extras (sorted for output).

  double NsPerOp() const { return ops == 0 ? 0 : static_cast<double>(wall_ns) / ops; }
  double OpsPerSec() const {
    return wall_ns == 0 ? 0 : static_cast<double>(ops) * 1e9 / static_cast<double>(wall_ns);
  }
  double AllocsPerOp() const {
    return ops == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(ops);
  }
};

class PerfRecorder {
 public:
  // Opens a phase; at most one phase is open at a time.
  void Begin(const std::string& phase);

  // Closes the open phase with the number of work items it performed and
  // returns the finished result (also kept in phases()).
  const PhaseResult& End(uint64_t ops);

  // Attaches a named counter to the currently open phase.
  void Count(const std::string& name, double value);

  const std::vector<PhaseResult>& phases() const { return phases_; }

 private:
  std::vector<PhaseResult> phases_;
  bool open_ = false;
  PhaseResult current_;
  uint64_t start_wall_ = 0;
  AllocSnapshot start_alloc_;
};

}  // namespace rtvirt::perf

#endif  // SRC_PERF_PERF_RECORDER_H_
