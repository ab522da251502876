#include "src/perf/perf_recorder.h"

#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace rtvirt::perf {

uint64_t MonotonicNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream row(line.substr(6));
      uint64_t kb = 0;
      row >> kb;
      return kb;
    }
  }
  return 0;
}

void PerfRecorder::Begin(const std::string& phase) {
  RTVIRT_CHECK(!open_, "perf phase \"%s\" opened while \"%s\" is still open",
               phase.c_str(), current_.name.c_str());
  current_ = PhaseResult{};
  current_.name = phase;
  open_ = true;
  start_alloc_ = AllocNow();
  start_wall_ = MonotonicNowNs();
}

const PhaseResult& PerfRecorder::End(uint64_t ops) {
  uint64_t end_wall = MonotonicNowNs();
  AllocSnapshot end_alloc = AllocNow();
  RTVIRT_CHECK(open_, "perf End() with no open phase (%llu phases recorded)",
               static_cast<unsigned long long>(phases_.size()));
  current_.ops = ops;
  current_.wall_ns = end_wall - start_wall_;
  current_.allocs = end_alloc.allocs - start_alloc_.allocs;
  current_.alloc_bytes = end_alloc.bytes - start_alloc_.bytes;
  open_ = false;
  phases_.push_back(std::move(current_));
  return phases_.back();
}

void PerfRecorder::Count(const std::string& name, double value) {
  RTVIRT_CHECK(open_, "perf Count(\"%s\") with no open phase", name.c_str());
  AllocSnapshot before = AllocNow();
  current_.counters[name] = value;
  AllocSnapshot after = AllocNow();
  // The recorder's own bookkeeping (map node, key copy) is not part of the
  // workload under measurement: credit it back to the phase baseline.
  start_alloc_.allocs += after.allocs - before.allocs;
  start_alloc_.bytes += after.bytes - before.bytes;
}

}  // namespace rtvirt::perf
