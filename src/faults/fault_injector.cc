#include "src/faults/fault_injector.h"

#include <cstdio>
#include <utility>

#include "src/common/check.h"

namespace rtvirt {

namespace {

// What a caller waits on a dropped hypercall before giving up.
constexpr TimeNs kHypercallDropTimeout = Ms(1);
// Reservation period of an adversarial kBandwidthThrash campaign's calls.
constexpr TimeNs kThrashPeriod = Ms(10);

std::string Entry(const char* field, size_t i, const char* what, long long a, long long b) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s[%zu]: %s (%lld, %lld)", field, i, what, a, b);
  return buf;
}

// A degrade speed must be at most full speed and survive
// Machine::SetPcpuSpeed's rounding to whole ppb: a sub-ppb speed would leave
// an online core with speed 0.
bool ValidSpeed(double speed) {
  return speed <= 1.0 && speed * static_cast<double>(Bandwidth::kUnit) + 0.5 >= 1.0;
}

}  // namespace

std::string FaultPlan::Validate(int num_pcpus, int num_vms, int num_hosts) const {
  for (size_t i = 0; i < hypercall_outages.size(); ++i) {
    const Outage& o = hypercall_outages[i];
    if (o.start < 0 || o.end <= o.start) {
      return Entry("hypercall_outages", i, "empty or negative duration", o.start, o.end);
    }
    for (size_t j = 0; j < i; ++j) {
      const Outage& p = hypercall_outages[j];
      if (o.start < p.end && p.start < o.end) {
        return Entry("hypercall_outages", i, "overlaps earlier window at index",
                     static_cast<long long>(j), p.end);
      }
    }
  }
  for (size_t i = 0; i < vm_failures.size(); ++i) {
    const VmFailure& f = vm_failures[i];
    if (f.vm_index < 0 || (num_vms >= 0 && f.vm_index >= num_vms)) {
      return Entry("vm_failures", i, "vm index out of range for machine size",
                   f.vm_index, num_vms);
    }
    if (f.crash_at < 0 || f.restart_at <= f.crash_at) {
      return Entry("vm_failures", i, "restart precedes crash or negative crash time",
                   f.crash_at, f.restart_at);
    }
  }
  for (size_t i = 0; i < adversarial_guests.size(); ++i) {
    const AdversarialGuest& a = adversarial_guests[i];
    if (a.vm_index < 0 || (num_vms >= 0 && a.vm_index >= num_vms)) {
      return Entry("adversarial_guests", i, "vm index out of range for machine size",
                   a.vm_index, num_vms);
    }
    if (a.start < 0 || a.end <= a.start) {
      return Entry("adversarial_guests", i, "empty or negative campaign window",
                   a.start, a.end);
    }
    if (a.period <= 0) {
      return Entry("adversarial_guests", i, "non-positive event cadence", a.period, 0);
    }
    if (a.kind == AdversarialGuest::Kind::kBandwidthThrash &&
        (a.thrash_low > a.thrash_high || a.thrash_high > Bandwidth::One() ||
         a.thrash_low <= Bandwidth::Zero())) {
      return Entry("adversarial_guests", i, "thrash bandwidths out of order or range (ppb)",
                   a.thrash_low.ppb(), a.thrash_high.ppb());
    }
  }
  for (size_t i = 0; i < pcpu_faults.size(); ++i) {
    const PcpuFault& f = pcpu_faults[i];
    if (f.pcpu < 0 || f.pcpu >= num_pcpus) {
      return Entry("pcpu_faults", i, "pcpu id out of range for machine size",
                   f.pcpu, num_pcpus);
    }
    bool windowed = f.kind != PcpuFault::Kind::kPermanentFailure;
    if (f.at < 0 || (windowed && f.until <= f.at)) {
      return Entry("pcpu_faults", i, "empty or negative duration", f.at, f.until);
    }
    if (f.kind == PcpuFault::Kind::kDegrade && !ValidSpeed(f.speed)) {
      return Entry("pcpu_faults", i, "degrade speed outside [1 ppb, 1] (speed in ppb, _)",
                   static_cast<long long>(f.speed * 1e9), 0);
    }
    // Two events on the same core must not overlap in time: a permanent
    // failure extends to forever, so nothing may follow it on that core.
    TimeNs end_i = f.kind == PcpuFault::Kind::kPermanentFailure ? kTimeNever : f.until;
    for (size_t j = 0; j < i; ++j) {
      const PcpuFault& p = pcpu_faults[j];
      if (p.pcpu != f.pcpu) {
        continue;
      }
      TimeNs end_j = p.kind == PcpuFault::Kind::kPermanentFailure ? kTimeNever : p.until;
      if (f.at < end_j && p.at < end_i) {
        return Entry("pcpu_faults", i, "overlaps earlier fault on same pcpu at index",
                     static_cast<long long>(j), p.at);
      }
    }
  }
  for (size_t i = 0; i < control_faults.size(); ++i) {
    const ControlFault& f = control_faults[i];
    if (f.vm_index < 0 || (num_vms >= 0 && f.vm_index >= num_vms)) {
      return Entry("control_faults", i, "vm index out of range for machine size",
                   f.vm_index, num_vms);
    }
    if (f.at < 0 || f.until <= f.at) {
      return Entry("control_faults", i, "empty or negative window", f.at, f.until);
    }
    if (f.kind == ControlFault::Kind::kStalePage && f.delay <= 0) {
      return Entry("control_faults", i, "non-positive stale-page delay", f.delay, 0);
    }
    // Two windows of the same kind on the same VM must not overlap — the
    // stale-page restore of an earlier window would otherwise cancel a live
    // later one, and overlapping outages are almost certainly a plan typo.
    for (size_t j = 0; j < i; ++j) {
      const ControlFault& p = control_faults[j];
      if (p.vm_index != f.vm_index || p.kind != f.kind) {
        continue;
      }
      if (f.at < p.until && p.at < f.until) {
        return Entry("control_faults", i, "overlaps earlier window on same vm at index",
                     static_cast<long long>(j), p.at);
      }
    }
  }
  for (size_t i = 0; i < host_faults.size(); ++i) {
    const HostFault& f = host_faults[i];
    if (f.host < 0 || (num_hosts >= 0 && f.host >= num_hosts)) {
      return Entry("host_faults", i, "host id out of range for cluster size",
                   f.host, num_hosts);
    }
    bool windowed = f.kind != HostFault::Kind::kCrash;
    if (f.at < 0 || (windowed && f.until <= f.at)) {
      return Entry("host_faults", i, "empty or negative duration", f.at, f.until);
    }
    if (f.kind == HostFault::Kind::kDegrade && !ValidSpeed(f.factor)) {
      return Entry("host_faults", i, "degrade factor outside [1 ppb, 1] (factor in ppb, _)",
                   static_cast<long long>(f.factor * 1e9), 0);
    }
    // Same per-resource overlap rule as pcpu_faults: a crash lasts forever,
    // so nothing may follow it on that host.
    TimeNs end_i = f.kind == HostFault::Kind::kCrash ? kTimeNever : f.until;
    for (size_t j = 0; j < i; ++j) {
      const HostFault& p = host_faults[j];
      if (p.host != f.host) {
        continue;
      }
      TimeNs end_j = p.kind == HostFault::Kind::kCrash ? kTimeNever : p.until;
      if (f.at < end_j && p.at < end_i) {
        return Entry("host_faults", i, "overlaps earlier fault on same host at index",
                     static_cast<long long>(j), p.at);
      }
    }
  }
  return std::string();
}

FaultInjector::FaultInjector(Machine* machine, FaultPlan plan)
    : machine_(machine), plan_(std::move(plan)), rng_(plan_.seed) {
  std::string err = plan_.Validate(machine_->num_pcpus());
  RTVIRT_CHECK(err.empty(), "invalid FaultPlan: %s", err.c_str());
}

bool FaultInjector::InOutage(TimeNs now) const {
  for (const FaultPlan::Outage& o : plan_.hypercall_outages) {
    if (now >= o.start && now < o.end) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::InControlOutage(const Vcpu* caller, TimeNs now) const {
  if (caller == nullptr) {
    return false;
  }
  for (const FaultPlan::ControlFault& f : plan_.control_faults) {
    if (f.kind == FaultPlan::ControlFault::Kind::kChannelOutage &&
        caller->vm() == machine_->vm(f.vm_index) && now >= f.at && now < f.until) {
      return true;
    }
  }
  return false;
}

Machine::HypercallFault FaultInjector::OnHypercall(Vcpu* caller, const HypercallArgs& args) {
  (void)args;
  ++stats_.hypercall_attempts;
  Machine::HypercallFault fault;
  // Outage windows (global and per-VM) are checked first and draw no
  // randomness: adding or removing an outage does not shift the RNG stream
  // of the random faults outside the window.
  if (InOutage(machine_->sim()->Now())) {
    ++stats_.outage_failures;
    fault.action = Machine::HypercallFault::Action::kFail;
    return fault;
  }
  if (InControlOutage(caller, machine_->sim()->Now())) {
    ++stats_.control_outage_failures;
    fault.action = Machine::HypercallFault::Action::kFail;
    return fault;
  }
  if (plan_.hypercall_drop_prob > 0 && rng_.Bernoulli(plan_.hypercall_drop_prob)) {
    ++stats_.injected_drops;
    fault.action = Machine::HypercallFault::Action::kDrop;
    fault.extra_latency = kHypercallDropTimeout;
    return fault;
  }
  if (plan_.hypercall_fail_prob > 0 && rng_.Bernoulli(plan_.hypercall_fail_prob)) {
    ++stats_.injected_failures;
    fault.action = Machine::HypercallFault::Action::kFail;
    return fault;
  }
  if (plan_.hypercall_spike_prob > 0 && rng_.Bernoulli(plan_.hypercall_spike_prob)) {
    ++stats_.injected_spikes;
    fault.extra_latency = plan_.hypercall_spike_latency;
  }
  return fault;
}

void FaultInjector::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  // The constructor may run before the VMs exist; now they all do, so
  // re-validate with the real count. A plan naming a VM the machine does not
  // have is a harness bug — failing loudly beats silently skipping the fault
  // and reporting a clean run that injected nothing.
  std::string err = plan_.Validate(machine_->num_pcpus(), machine_->num_vms());
  RTVIRT_CHECK(err.empty(), "invalid FaultPlan at Arm(): %s", err.c_str());
  machine_->SetHypercallInterceptor(
      [this](Vcpu* caller, const HypercallArgs& args) { return OnHypercall(caller, args); });
  if (plan_.shared_page_visibility_delay > 0) {
    for (int i = 0; i < machine_->num_vms(); ++i) {
      machine_->vm(i)->shared_page().SetVisibilityDelay(plan_.shared_page_visibility_delay);
    }
  }
  Simulator* sim = machine_->sim();
  for (size_t i = 0; i < plan_.vm_failures.size(); ++i) {
    const FaultPlan::VmFailure& f = plan_.vm_failures[i];
    sim->At(f.crash_at, this, kEvVmCrash, i);
    if (f.restart_at < kTimeNever) {
      sim->At(f.restart_at, this, kEvVmRestart, i);
    }
  }
  for (size_t i = 0; i < plan_.pcpu_faults.size(); ++i) {
    const FaultPlan::PcpuFault& f = plan_.pcpu_faults[i];
    sim->At(f.at, this, kEvPcpuFaultStart, i);
    bool has_end = f.kind == FaultPlan::PcpuFault::Kind::kTransientOffline ||
                   (f.kind == FaultPlan::PcpuFault::Kind::kDegrade && f.until < kTimeNever);
    if (has_end) {
      sim->At(f.until, this, kEvPcpuFaultEnd, i);
    }
  }
  for (size_t i = 0; i < plan_.adversarial_guests.size(); ++i) {
    sim->At(plan_.adversarial_guests[i].start, this, kEvAdversaryTick,
            static_cast<uint64_t>(i) << 32);
  }
  for (size_t i = 0; i < plan_.control_faults.size(); ++i) {
    const FaultPlan::ControlFault& f = plan_.control_faults[i];
    if (f.kind != FaultPlan::ControlFault::Kind::kStalePage) {
      continue;  // kChannelOutage is evaluated per call in OnHypercall.
    }
    sim->At(f.at, this, kEvControlStaleStart, i);
    sim->At(f.until, this, kEvControlStaleEnd, i);
  }
}

void FaultInjector::OnEvent(uint32_t kind, uint64_t payload) {
  switch (kind) {
    case kEvVmCrash:
      return FireVmCrash(payload);
    case kEvVmRestart:
      return FireVmRestart(payload);
    case kEvPcpuFaultStart:
      return FirePcpuFaultStart(payload);
    case kEvPcpuFaultEnd:
      return FirePcpuFaultEnd(payload);
    case kEvAdversaryTick:
      return AdversaryTick(payload >> 32, payload & 0xffffffffull);
    case kEvControlStaleStart:
      return FireControlStaleStart(payload);
    case kEvControlStaleEnd:
      return FireControlStaleEnd(payload);
  }
}

void FaultInjector::FireVmCrash(size_t i) {
  Vm* vm = machine_->vm(plan_.vm_failures[i].vm_index);
  machine_->CrashVm(vm);
  ++stats_.vm_crashes;
  for (const VmHandler& h : crash_handlers_) {
    h(vm);
  }
}

void FaultInjector::FireVmRestart(size_t i) {
  Vm* vm = machine_->vm(plan_.vm_failures[i].vm_index);
  machine_->RestartVm(vm);
  ++stats_.vm_restarts;
  for (const VmHandler& h : restart_handlers_) {
    h(vm);
  }
}

void FaultInjector::FirePcpuFaultStart(size_t i) {
  const FaultPlan::PcpuFault& f = plan_.pcpu_faults[i];
  switch (f.kind) {
    case FaultPlan::PcpuFault::Kind::kPermanentFailure:
    case FaultPlan::PcpuFault::Kind::kTransientOffline:
      machine_->SetPcpuOnline(f.pcpu, false);
      ++stats_.pcpu_offline_events;
      break;
    case FaultPlan::PcpuFault::Kind::kDegrade:
      machine_->SetPcpuSpeed(f.pcpu, f.speed);
      ++stats_.pcpu_degrade_events;
      break;
  }
}

void FaultInjector::FirePcpuFaultEnd(size_t i) {
  const FaultPlan::PcpuFault& f = plan_.pcpu_faults[i];
  if (f.kind == FaultPlan::PcpuFault::Kind::kTransientOffline) {
    machine_->SetPcpuOnline(f.pcpu, true);
    ++stats_.pcpu_online_events;
  } else {
    machine_->SetPcpuSpeed(f.pcpu, 1.0);
    ++stats_.pcpu_heal_events;
  }
}

void FaultInjector::FireControlStaleStart(size_t i) {
  const FaultPlan::ControlFault& f = plan_.control_faults[i];
  machine_->vm(f.vm_index)->shared_page().SetVisibilityDelay(f.delay);
  ++stats_.control_stale_windows;
}

void FaultInjector::FireControlStaleEnd(size_t i) {
  // Closing the window restores the plan-wide baseline delay, so a global
  // shared_page_visibility_delay composes with a targeted stale window.
  const FaultPlan::ControlFault& f = plan_.control_faults[i];
  machine_->vm(f.vm_index)->shared_page().SetVisibilityDelay(
      plan_.shared_page_visibility_delay);
}

void FaultInjector::AdversaryTick(size_t idx, uint64_t step) {
  const FaultPlan::AdversarialGuest& a = plan_.adversarial_guests[idx];
  Simulator* sim = machine_->sim();
  TimeNs now = sim->Now();
  if (now >= a.end) {
    return;  // Campaign over; no reschedule.
  }
  Vm* vm = machine_->vm(a.vm_index);
  if (!vm->crashed() && vm->num_vcpus() > 0) {
    switch (a.kind) {
      case FaultPlan::AdversarialGuest::Kind::kDeadlineLies: {
        // Hostile writes land on VCPU 0, the slot the host actually reads
        // (it carries the VM's legitimate reservation). Even steps publish a
        // deadline half the clock in the past — stale by far more than any
        // reservation period, so the sanitizer scores it as a lie rather
        // than honest tardiness; odd steps publish now + 1.5 cadences —
        // with the cadence at or below the planner's minimum slice, that
        // horizon is still in the future at every read, so it pins the
        // global slice at its floor and maximizes replan + dispatch
        // overhead. Sprinkled in are out-of-range indices poking the
        // shared-page guards (hardening regression: these must be no-ops,
        // not crashes or allocations).
        SharedSchedPage& page = vm->shared_page();
        TimeNs lie = step % 2 == 0 ? now / 2 : now + a.period + a.period / 2;
        page.PublishNextDeadline(0, lie);
        if (step % 7 == 3) {
          page.PublishNextDeadline(-1 - static_cast<int>(step % 5), lie);
        }
        if (step % 11 == 5) {
          page.PublishNextDeadline(SharedSchedPage::kMaxSlots + static_cast<int>(step), lie);
        }
        ++stats_.adversarial_deadline_lies;
        break;
      }
      case FaultPlan::AdversarialGuest::Kind::kHypercallStorm: {
        // Garbage requests (zero period is always invalid) from VCPU 0: the
        // point is call volume, not state change — each one still burns the
        // host's hypercall cost and, hardened, a rate-limiter token.
        HypercallArgs args;
        args.op = SchedOp::kIncBw;
        args.vcpu_a = vm->vcpu(0);
        args.bw_a = Bandwidth::FromDouble(0.01);
        args.period_a = 0;
        machine_->Hypercall(vm->vcpu(0), args);
        ++stats_.adversarial_storm_calls;
        break;
      }
      case FaultPlan::AdversarialGuest::Kind::kBandwidthThrash: {
        // Oscillation abuse on the VM's *last* VCPU — one no guest channel
        // manages, so host-held bandwidth the channel does not know about
        // stays within the audited contract. Every accepted call forces a
        // full replan.
        Vcpu* target = vm->vcpu(vm->num_vcpus() - 1);
        HypercallArgs args;
        args.vcpu_a = target;
        args.period_a = kThrashPeriod;
        if (step % 2 == 0) {
          args.op = SchedOp::kIncBw;
          args.bw_a = a.thrash_high;
        } else {
          args.op = SchedOp::kDecBw;
          args.bw_a = a.thrash_low;
        }
        machine_->Hypercall(target, args);
        ++stats_.adversarial_thrash_calls;
        break;
      }
    }
  }
  sim->After(a.period, this, kEvAdversaryTick, (static_cast<uint64_t>(idx) << 32) | (step + 1));
}

namespace {

// The section's counters after the RNG state, in byte order; save and
// restore share the list.
template <typename Stats, typename Io>
void StatsFields(Stats& s, Io& io) {
  ckpt::Fields(io, s.hypercall_attempts, s.injected_failures, s.injected_drops,
               s.injected_spikes, s.outage_failures, s.vm_crashes, s.vm_restarts,
               s.pcpu_offline_events, s.pcpu_online_events, s.pcpu_degrade_events,
               s.pcpu_heal_events, s.adversarial_deadline_lies, s.adversarial_storm_calls,
               s.adversarial_thrash_calls, s.control_outage_failures, s.control_stale_windows);
}

}  // namespace

void FaultInjector::SaveState(ckpt::Writer& w) const {
  w.Str(rng_.SaveState());
  StatsFields(stats_, w);
}

std::string FaultInjector::RestoreState(ckpt::Reader& r) {
  if (!rng_.RestoreState(r.Str())) {
    return "faults: malformed RNG state";
  }
  StatsFields(stats_, r);
  if (!r.ok()) {
    return "faults: truncated section";
  }
  // Re-arm the synchronous paths only: the interceptor is per-process state
  // the checkpoint cannot carry, while the planned events come back through
  // RestoreEvent and the page visibility delay through the machine section (so the
  // Arm()-time SetVisibilityDelay must NOT run again — it would clobber an
  // in-progress stale-page window).
  machine_->SetHypercallInterceptor(
      [this](Vcpu* caller, const HypercallArgs& args) { return OnHypercall(caller, args); });
  armed_ = true;
  return "";
}

std::string FaultInjector::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  // Every kind names an entry of one plan list, which must exist in this plan.
  const std::pair<const char*, size_t> lists[] = {
      {"vm_failures", plan_.vm_failures.size()},        // kEvVmCrash, kEvVmRestart
      {"pcpu_faults", plan_.pcpu_faults.size()},        // kEvPcpuFault{Start,End}
      {"adversarial_guests", plan_.adversarial_guests.size()},  // kEvAdversaryTick
      {"control_faults", plan_.control_faults.size()},  // kEvControlStale{Start,End}
  };
  if (kind < kEvVmCrash || kind > kEvControlStaleEnd) {
    return "faults: unknown event kind " + std::to_string(kind);
  }
  const auto& [list, entries] = lists[kind <= kEvAdversaryTick ? (kind - 1) / 2 : 3];
  uint64_t index = kind == kEvAdversaryTick ? payload >> 32 : payload;
  if (index >= entries) {
    return std::string("faults: event references unknown ") + list + " entry " +
           std::to_string(index);
  }
  machine_->sim()->At(when, this, kind, payload);
  return "";
}

}  // namespace rtvirt
