// Guest overload control (GuestConfig::overload; DESIGN.md section 4d): the
// mixed-criticality degradation ladder. Admission degrades strictly
// lower-criticality reservations one step at a time (DegradeStepFor: compress
// elastic RTAs to their min_slice, else shed one RTA); the periodic poll of
// the host's shared-page pressure signal runs the same steps under sustained
// host overload, and reverses them (resume shed RTAs, then re-inflate
// compressed ones) once the pressure has stayed clear. Every function here is
// a GuestOs member; none of them runs unless overload control is enabled.

#include <algorithm>

#include "src/guest/guest_os.h"

namespace rtvirt {
namespace {

// Consecutive pressured polls with nothing left to compress before a task is
// shed; more ticks = more tolerance for transient pressure.
constexpr int kPressureShedAfterTicks = 2;
// Consecutive pressure-free polls before the first re-inflation step
// (hysteresis against compress/expand oscillation).
constexpr int kPressureReinflateHoldTicks = 4;
// Only tasks at or below these levels may be shed / compressed by the
// pressure poll. (Admission-time degradation is stricter still: it only
// touches tasks of strictly lower criticality than the newcomer.)
constexpr Criticality kPressureShedCeiling = Criticality::kLow;
constexpr Criticality kPressureCompressCeiling = Criticality::kMed;

}  // namespace

bool GuestOs::CompressUpTo(int max_level) {
  bool any = false;
  for (auto& vr : vcpus_) {
    bool changed = false;
    for (Task* t : vr.rtas) {
      if (CritLevel(t) <= max_level && t->params().elastic() && !t->compressed()) {
        t->compressed_slice_ = t->params().min_slice;
        ++overload_stats_.compressions;
        // The elastic task adapts immediately: queued jobs (including the
        // running one) truncate their remaining work to the compressed
        // budget. Without this the pre-compression backlog can never drain
        // — supply now equals per-period demand — and every later job
        // inherits the tardiness.
        if (vr.running == t) {
          SuspendRunning(vr);  // Banks progress; may finish an exact job.
        }
        for (Job& j : t->jobs_) {
          TimeNs done = j.work - j.remaining;
          TimeNs target = std::max(done, t->EffectiveSlice());
          if (j.work > target) {
            j.work = target;
            j.remaining = target - done;
          }
        }
        changed = true;
      }
    }
    if (changed) {
      Shrink(vr, kBwReasonOverloadShed);
      any = true;
    }
  }
  return any;
}

bool GuestOs::ShedOneUpTo(int max_level) {
  Task* victim = nullptr;
  for (auto& vr : vcpus_) {
    for (Task* t : vr.rtas) {
      if (CritLevel(t) > max_level) {
        continue;
      }
      if (victim == nullptr || CritLevel(t) < CritLevel(victim) ||
          (CritLevel(t) == CritLevel(victim) &&
           t->EffectiveBandwidth() > victim->EffectiveBandwidth())) {
        victim = t;
      }
    }
  }
  if (victim == nullptr) {
    return false;
  }
  VcpuRun& vr = vcpus_[victim->vcpu_index()];
  UnpinTask(victim);  // Suspends it if running; drops it from the pin set.
  victim->shed_ = true;
  victim->jobs_.clear();
  shed_.push_back(victim);
  ++overload_stats_.sheds;
  Shrink(vr, kBwReasonOverloadShed);
  return true;
}

bool GuestOs::DegradeStepFor(Criticality crit) {
  // Admission-time degradation only sacrifices strictly lower criticality:
  // a LOW newcomer can displace nothing, HIGH can displace LOW and MED.
  int below = static_cast<int>(crit) - 1;
  if (CompressUpTo(below)) {
    return true;
  }
  return ShedOneUpTo(below);
}

void GuestOs::PressureTick() {
  // Fixed cadence regardless of what this tick does.
  Arm(kEvPressure, 0, sim()->Now() + kPressurePoll);
  if (vm_->crashed() || global_edf()) {
    return;
  }
  if (vm_->shared_page().pressure_level() > 0) {
    pressure_clear_ticks_ = 0;
    if (CompressUpTo(static_cast<int>(kPressureCompressCeiling))) {
      // Compression just released bandwidth; give the host a tick to react
      // before escalating to shedding.
      pressure_ticks_under_ = 0;
      return;
    }
    if (pressure_ticks_under_ < kPressureShedAfterTicks) {
      ++pressure_ticks_under_;
    }
    if (pressure_ticks_under_ >= kPressureShedAfterTicks) {
      ShedOneUpTo(static_cast<int>(kPressureShedCeiling));
    }
    return;
  }
  pressure_ticks_under_ = 0;
  if (pressure_clear_ticks_ < kPressureReinflateHoldTicks) {
    ++pressure_clear_ticks_;
    return;
  }
  // Pressure has been clear long enough (hysteresis): undo one degradation
  // step per tick — resume a shed task first, else re-inflate one compressed
  // reservation. Gradual re-inflation avoids compress/expand oscillation.
  if (!TryResumeShed()) {
    TryExpandOne();
  }
}

bool GuestOs::HostHeadroomCovers(Bandwidth delta) const {
  const SharedSchedPage& page = vm_->shared_page();
  if (page.pressure_published_at() < 0) {
    // No host pressure publisher (host-side overload scan off): fall back to
    // probing by hypercall; the host still enforces admission.
    return true;
  }
  // The channel pads requests with slack, so leave the slack's worth of
  // margin by requiring strictly-covering headroom.
  return delta.ppb() <= page.pressure_headroom_ppb();
}

void GuestOs::ForgetShed(Task* task) {
  shed_.erase(std::remove(shed_.begin(), shed_.end(), task), shed_.end());
  task->shed_ = false;
  task->compressed_slice_ = 0;
  task->registered_ = false;
  task->jobs_.clear();
}

bool GuestOs::TryResumeShed() {
  Task* best = nullptr;
  for (Task* t : shed_) {
    if (best == nullptr || CritLevel(t) > CritLevel(best)) {
      best = t;
    }
  }
  if (best == nullptr) {
    return false;
  }
  // A task shed while compressed resumes compressed; TryExpandOne restores
  // its full budget later if room appears.
  Bandwidth bw = best->EffectiveBandwidth();
  if (!HostHeadroomCovers(bw)) {
    return false;  // Host advertises no room; wait, don't probe.
  }
  int idx = FindFirstFit(bw, /*exclude_index=*/-1);
  if (idx < 0) {
    return false;  // No local room yet; retry next tick.
  }
  VcpuRun& vr = vcpus_[idx];
  int64_t rc = cross_layer_->RequestBandwidth(vr.vcpu, Reserved(vr) + bw,
                                              MinPeriod(vr.rtas, best->params().period),
                                              kBwReasonReinflate);
  if (rc != kHypercallOk) {
    // Lost a race for the advertised headroom (another guest took it).
    // Restart the hysteresis window rather than re-probing every tick.
    pressure_clear_ticks_ = 0;
    return false;
  }
  shed_.erase(std::remove(shed_.begin(), shed_.end(), best), shed_.end());
  best->shed_ = false;
  ++overload_stats_.resumes;
  PinTask(best, idx, best->params_);
  Redispatch(vr);
  return true;
}

bool GuestOs::TryExpandOne() {
  Task* best = nullptr;
  for (auto& vr : vcpus_) {
    for (Task* t : vr.rtas) {
      if (t->compressed() && (best == nullptr || CritLevel(t) > CritLevel(best))) {
        best = t;
      }
    }
  }
  if (best == nullptr) {
    return false;
  }
  VcpuRun& vr = vcpus_[best->vcpu_index()];
  Bandwidth reserved = Reserved(vr);
  Bandwidth expanded = reserved - best->EffectiveBandwidth() + best->params().bandwidth();
  if (expanded > vr.capacity) {
    return false;  // In-place only; a later tick may free local room.
  }
  if (!HostHeadroomCovers(expanded - reserved)) {
    return false;  // Host advertises no room; wait, don't probe.
  }
  int64_t rc = cross_layer_->RequestBandwidth(vr.vcpu, expanded, MinPeriod(vr.rtas),
                                              kBwReasonReinflate);
  if (rc != kHypercallOk) {
    pressure_clear_ticks_ = 0;  // Lost the headroom race; back off one hold.
    return false;
  }
  best->compressed_slice_ = 0;
  ++overload_stats_.expansions;
  PublishDeadline(vr);
  return true;
}

}  // namespace rtvirt
