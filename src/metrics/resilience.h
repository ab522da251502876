// A run's resilience counters in one struct, and the table that reports
// them. ResilienceCounters derives from the component structs declared in
// src/metrics/counters.h; CounterRows() gives each field its layer and
// printed name, and the report, the cross-host sum and the federation's
// checkpoint are loops over it.

#ifndef SRC_METRICS_RESILIENCE_H_
#define SRC_METRICS_RESILIENCE_H_

#include <cstdint>
#include <iosfwd>
#include <span>

#include "src/metrics/counters.h"
#include "src/sim/event_queue.h"

namespace rtvirt {

struct ResilienceCounters : MachineStats,
                            FaultStats,
                            ChannelStats,
                            DpWrapStats,
                            GuestOverloadStats,
                            ControlStats,
                            AuditStats,
                            ClusterStats {
  // Allocation profile (perf subsystem, alloc_hooks): operator-new counts
  // split between warm-up (construction through the end of the first Run)
  // and steady state, plus event-queue node-storage allocations. Always
  // filled by the runner; printed only when `alloc_section` is set
  // (ExperimentConfig::report_alloc / RTVIRT_REPORT_ALLOC), so reports from
  // runs that did not opt in stay byte-identical. The counts and peak RSS
  // are process-wide snapshots, not per-host counters.
  bool alloc_section = false;
  uint64_t warmup_allocs = 0;
  uint64_t warmup_alloc_bytes = 0;
  uint64_t steady_allocs = 0;
  uint64_t steady_alloc_bytes = 0;
  uint64_t peak_rss_kb = 0;
  EventQueueStats event_queue;
};

// One report row per counter. Rows of a layer are contiguous and in print
// order; the value printed is the field divided by `divisor` (unit change).
struct CounterRow {
  const char* layer;
  const char* name;
  uint64_t ResilienceCounters::*field;
  uint64_t divisor = 1;
};
std::span<const CounterRow> CounterRows();

// Two-column "counter  value" dump, one section per layer. The injected,
// guest and host sections always print; every other layer prints when any
// of its counters is nonzero, and the alloc section when alloc_section is
// set, so runs that never touch a subsystem keep their report bytes.
void PrintResilience(std::ostream& out, const ResilienceCounters& c);

// Sums every counter row and the event-queue stats of `from` into `into`
// (cluster reports aggregate one ResilienceCounters per host) and ORs
// alloc_section. The process-wide allocation profile does not add up across
// hosts, so `into` keeps its own.
void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from);

}  // namespace rtvirt

#endif  // SRC_METRICS_RESILIENCE_H_
