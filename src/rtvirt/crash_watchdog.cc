#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"

namespace rtvirt {

bool CrashWatchdog::Reclaim(DpWrapScheduler& s) const {
  // Without the watchdog a crashed VM's bandwidth stays admitted forever and
  // blocks new tenants.
  bool changed = false;
  for (size_t i = 0; i < s.active_.size();) {
    int gid = s.active_[i];
    if (!s.slots_[gid].vcpu->vm()->crashed()) {
      ++i;
      continue;
    }
    s.total_ -= s.slots_[gid].res.bw;
    ++stats_->watchdog_reclaims;
    s.Release(gid);  // Shifts the next reservation into position i.
    changed = true;
  }
  return changed;
}

bool CrashWatchdog::Fresh(TimeNs published, TimeNs now) const {
  // The guest may be wedged or its publication lost, and honoring an ancient
  // promise would let the host under-serve everyone else.
  if (horizon_ <= 0 || (published >= 0 && now - published <= horizon_)) {
    return true;
  }
  ++stats_->stale_rejections;
  return false;
}

}  // namespace rtvirt
