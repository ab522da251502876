// Virtual-cost accounting for scheduler overhead (paper Table 6).
//
// Every schedule() invocation, context switch, VCPU migration and hypercall
// charges a cost to the machine. The costs delay useful execution (they are
// inserted before the next VCPU starts running), so overhead is not merely
// bookkeeping: too-expensive scheduling genuinely causes deadline misses.

#ifndef SRC_HV_OVERHEAD_H_
#define SRC_HV_OVERHEAD_H_

#include <cstdint>

#include "src/common/time.h"

namespace rtvirt {

struct OverheadStats {
  uint64_t schedule_calls = 0;
  TimeNs schedule_time = 0;
  uint64_t context_switches = 0;
  TimeNs context_switch_time = 0;
  uint64_t migrations = 0;
  TimeNs migration_time = 0;
  uint64_t hypercalls = 0;
  TimeNs hypercall_time = 0;

  TimeNs TotalTime() const {
    return schedule_time + context_switch_time + migration_time + hypercall_time;
  }

  // Overhead as a fraction of total machine CPU time over `wall` ns on
  // `pcpus` processors (the "Total Overhead (%)" column of Table 6).
  double Fraction(TimeNs wall, int pcpus) const {
    if (wall <= 0 || pcpus <= 0) {
      return 0.0;
    }
    return static_cast<double>(TotalTime()) / static_cast<double>(wall * pcpus);
  }
};

}  // namespace rtvirt

#endif  // SRC_HV_OVERHEAD_H_
