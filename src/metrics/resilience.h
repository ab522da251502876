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

namespace rtvirt {

struct ResilienceCounters : MachineStats,
                            FaultStats,
                            ChannelStats,
                            DpWrapStats,
                            GuestOverloadStats,
                            ControlStats,
                            AuditStats,
                            ClusterStats {};

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
// of its counters is nonzero, so runs that never touch a subsystem keep
// their report bytes.
void PrintResilience(std::ostream& out, const ResilienceCounters& c);

// Sums every counter row of `from` into `into` (cluster reports aggregate
// one ResilienceCounters per host).
void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from);

}  // namespace rtvirt

#endif  // SRC_METRICS_RESILIENCE_H_
