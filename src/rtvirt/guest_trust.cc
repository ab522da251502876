#include <type_traits>

#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"

namespace rtvirt {
namespace {

// Replan-rate budget: fresh publications from one VM binding the global
// slice at the floor, per rate window.
constexpr TimeNs kRateWindow = Ms(100);
constexpr int kMaxFloorBindings = 128;
// Token bucket per VM: burst, and sustained hypercalls per second.
constexpr double kHypercallBurst = 64.0;
constexpr double kHypercallRate = 2000.0;
// INC_BW/DEC_BW direction flips tolerated per rate window.
constexpr int kMaxBwFlips = 32;
// Per-scan score decay, the score that quarantines a VM (each violation adds
// 1), and the consecutive clean scans that rehabilitate it.
constexpr double kScoreDecay = 0.8;
constexpr double kQuarantineThreshold = 8.0;
constexpr int kRehabCleanScans = 20;

// The section's records, each in byte order; save and restore share them.
// last_bw_dir (-1, 0 or +1) is stored plus one.
template <typename Trust, typename Io>
void TrustFields(Trust& t, Io& io) {
  int dir = t.last_bw_dir + 1;
  ckpt::Fields(io, t.tokens, t.token_time, t.bucket_init, t.window_start, t.floor_bindings,
               t.bw_flips, dir, t.deadlines_distrusted, t.score, t.quarantined, t.clean_scans,
               t.violated_since_scan);
  if constexpr (std::is_same_v<Io, ckpt::Reader>) {
    t.last_bw_dir = dir - 1;
  }
}

template <typename C, typename Io>
void ChargedFields(C& c, Io& io) {
  ckpt::Fields(io, c.lie, c.floor);
}

}  // namespace

GuestTrust::VmTrust& GuestTrust::TrustOf(const Vm* vm, TimeNs now) {
  size_t id = static_cast<size_t>(vm->id());
  by_vm_.resize(std::max(by_vm_.size(), id + 1));
  VmTrust& t = by_vm_[id];
  if (now - t.window_start >= kRateWindow) {
    t.window_start = now;
    t.floor_bindings = 0;
    t.bw_flips = 0;
    t.deadlines_distrusted = false;
  }
  return t;
}

void GuestTrust::Violation(VmTrust& t) {
  t.score += 1.0;
  t.violated_since_scan = true;
  if (!t.quarantined && t.score >= kQuarantineThreshold) {
    t.quarantined = true;
    t.clean_scans = 0;
    ++stats_->quarantines;
    replan_ = true;
  }
}

bool GuestTrust::Quarantined(const Vm* vm) const {
  size_t id = static_cast<size_t>(vm->id());
  return id < by_vm_.size() && by_vm_[id].quarantined;
}

int64_t GuestTrust::Admit(const Vm* vm, const HypercallArgs& args, TimeNs now) {
  VmTrust& t = TrustOf(vm, now);
  t.tokens = !t.bucket_init ? kHypercallBurst
                            : std::min(kHypercallBurst,
                                       t.tokens + static_cast<double>(now - t.token_time) *
                                                      kHypercallRate / 1e9);
  t.bucket_init = true;
  t.token_time = now;
  if (t.tokens < 1.0) {
    // Exhausted: kHypercallAgain is what the channel's retry and degraded
    // machinery already speaks, so a throttled well-behaved guest backs off
    // and recovers while a storm keeps scoring violations.
    ++stats_->hypercall_rate_rejections;
    Violation(t);
    return kHypercallAgain;
  }
  t.tokens -= 1.0;
  // INC/DEC oscillation abuse buys a replan per call without ever holding
  // the bandwidth. Direction flips beyond the window's budget score a
  // violation, and the counter re-arms so each trip needs a fresh burst.
  int dir = args.op == SchedOp::kIncBw ? 1 : args.op == SchedOp::kDecBw ? -1 : 0;
  if (dir != 0) {
    if (t.last_bw_dir != 0 && dir != t.last_bw_dir && ++t.bw_flips > kMaxBwFlips) {
      t.bw_flips = 0;
      ++stats_->bw_thrash_trips;
      Violation(t);
    }
    t.last_bw_dir = dir;
  }
  if (t.quarantined) {
    // Bandwidth-only scheduling: the VM keeps exactly what it holds. Even
    // shrinks are held, since every accepted change forces a replan and a
    // quarantined guest alternating cheap DEC calls could keep restarting
    // the global slice; the shrink retries and lands after release.
    ++stats_->quarantine_holds;
    return kHypercallAgain;
  }
  return kHypercallOk;
}

bool GuestTrust::Distrusts(const Vm* vm, int gid, TimeNs& cand, TimeNs published,
                           TimeNs period, TimeNs now, TimeNs floor) {
  VmTrust& t = TrustOf(vm, now);
  Charged& charged = by_gid_[gid];
  // A deadline a whole period stale when published is a lie, not lateness:
  // an honest backlogged guest publishes a slightly past head deadline, and
  // scoring mild staleness would quarantine the very victims an attack makes
  // tardy. A lie scores once per publication, or a VM could never
  // rehabilitate; the planner's sporadic fallback neutralizes its value. A
  // horizon below the floor is normal (a completing job publishes its next
  // release): clamped and counted, not scored.
  if (published >= 0 && cand < published - period && published != charged.lie) {
    charged.lie = published;
    ++stats_->deadline_lie_rejections;
    Violation(t);
  } else if (published >= 0 && cand > now && cand - published < floor) {
    cand = std::max(cand, now + floor);
    ++stats_->deadline_floor_clamps;
  }
  if (t.quarantined || t.deadlines_distrusted) {
    return true;
  }
  // Replan-rate budget: each fresh publication that binds the slice at the
  // floor spends one of the window's bindings; a guest that exhausts them is
  // forcing replans at the maximum rate and loses trust until the window
  // rolls.
  if (cand <= now + floor && published >= 0 && published != charged.floor) {
    charged.floor = published;
    if (++t.floor_bindings > kMaxFloorBindings) {
      t.deadlines_distrusted = true;
      ++stats_->replan_budget_trips;
      Violation(t);
      return true;
    }
  }
  return false;
}

void GuestTrust::Scan() {
  // VM id order, so rehabilitations happen in a fixed sequence.
  for (VmTrust& t : by_vm_) {
    t.score *= kScoreDecay;
    if (t.score < 1e-6) {
      t.score = 0.0;
    }
    if (t.quarantined) {
      // Hysteresis, like the overload watermarks: release only after enough
      // consecutive violation-free scans with a mostly decayed score; a VM
      // still attacking keeps resetting the count itself.
      if (t.violated_since_scan || t.score >= kQuarantineThreshold / 2) {
        t.clean_scans = 0;
      } else if (++t.clean_scans >= kRehabCleanScans) {
        t.quarantined = false;
        t.clean_scans = 0;
        t.score = 0.0;
        ++stats_->quarantine_releases;
        replan_ = true;
      }
    }
    t.violated_since_scan = false;
  }
}

std::vector<std::string> GuestTrust::AuditIsolation(const DpWrapScheduler& s) const {
  std::vector<std::string> violations;
  const Machine* machine = s.machine_;
  if (s.replan_pending_ ||
      machine->EffectiveCapacity() != Bandwidth::Cpus(machine->num_pcpus())) {
    // A plan mid-transition cannot be judged, and degraded capacity shrinks
    // everyone's allocation legitimately (the pcpu-recovery audit's regime).
    return violations;
  }
  // The tolerance covers each reservation's carry trimming (< 1 ns) plus the
  // floor division of SliceOf.
  TimeNs slice_len = s.slice_end_ - s.slice_start_;
  TimeNs tolerance = static_cast<TimeNs>(s.active_.size()) + 1;
  for (int gid : s.active_) {
    const Vcpu* v = s.slots_[gid].vcpu;
    if (v->vm()->crashed() || Quarantined(v->vm())) {
      continue;
    }
    TimeNs alloc = 0;
    for (const DpWrapScheduler::PlanSegment& seg : s.SegmentsOf(gid)) {
      alloc += seg.end - seg.start;
    }
    TimeNs bound = s.EffectiveBw(gid).SliceOf(slice_len);
    if (alloc + tolerance < bound) {
      violations.push_back("vcpu " + std::to_string(v->index()) + " (well-behaved VM) planned " +
                           std::to_string(alloc) + " ns of a " + std::to_string(slice_len) +
                           " ns slice, below its fluid share " + std::to_string(bound) + " ns");
    }
  }
  return violations;
}

void GuestTrust::SaveState(std::span<const int> active, ckpt::Writer& w) const {
  for (int gid : active) {
    ChargedFields(by_gid_[gid], w);
  }
  w.U32(static_cast<uint32_t>(by_vm_.size()));
  for (const VmTrust& t : by_vm_) {
    TrustFields(t, w);
  }
}

std::string GuestTrust::RestoreState(std::span<const int> active, int num_vms, ckpt::Reader& r) {
  for (int gid : active) {
    Reset(gid);
    ChargedFields(by_gid_[gid], r);
  }
  uint32_t n = r.U32();
  if (r.ok() && n > static_cast<uint32_t>(num_vms)) {
    return "dpwrap: trust record covers " + std::to_string(n) + " VMs, the machine has " +
           std::to_string(num_vms);
  }
  by_vm_.resize(r.ok() ? n : 0);
  for (VmTrust& t : by_vm_) {
    TrustFields(t, r);
  }
  return "";
}

}  // namespace rtvirt
