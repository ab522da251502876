#include <cmath>

#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"

namespace rtvirt {
namespace {

// Grant this much above observed use, and never tax below 10% of the claim.
constexpr double kHeadroom = 0.25;
constexpr double kMinFactor = 0.1;

// One reservation's record, in byte order; save and restore share it.
template <typename E, typename Io>
void EntryFields(E& e, Io& io) {
  ckpt::Fields(io, e.used, e.factor);
}

}  // namespace

bool IdleTax::Scan(const DpWrapScheduler& s) {
  // Settle in-flight runs so their use counts in this window.
  for (int i = 0; i < s.machine_->num_pcpus(); ++i) {
    s.machine_->pcpu(i)->SettleAccounting();
  }
  bool changed = false;
  for (int gid : s.active_) {
    Entry& e = by_gid_[gid];
    double granted = static_cast<double>(Apply(gid, s.slots_[gid].res.bw).ppb()) /
                     Bandwidth::kUnit * static_cast<double>(window_);
    double u = granted > 0 ? static_cast<double>(e.used) / granted : 0.0;
    double next = std::clamp(e.factor * std::min(u, 1.0) + kHeadroom, kMinFactor, 1.0);
    if (std::abs(next - e.factor) > 1e-3) {
      e.factor = next;
      changed = true;
    }
    e.used = 0;
  }
  return changed;
}

void IdleTax::SaveState(std::span<const int> active, ckpt::Writer& w) const {
  for (int gid : active) {
    EntryFields(by_gid_[gid], w);
  }
}

void IdleTax::RestoreState(std::span<const int> active, ckpt::Reader& r) {
  for (int gid : active) {
    Reset(gid);
    EntryFields(by_gid_[gid], r);
  }
}

}  // namespace rtvirt
