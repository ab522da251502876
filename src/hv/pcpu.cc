#include "src/hv/pcpu.h"

#include <cassert>

#include "src/hv/machine.h"
#include "src/hv/vcpu.h"

namespace rtvirt {

Pcpu::Pcpu(Machine* machine, int id) : machine_(machine), id_(id) {}

TimeNs Pcpu::idle_time(TimeNs now) const { return now - busy_time_; }

void Pcpu::Arm(uint32_t kind, TimeNs when) {
  Simulator::EventId id = machine_->sim()->At(when, machine_, kind, static_cast<uint64_t>(id_));
  if (kind == Machine::kEvSliceEnd) {
    slice_end_event_ = id;
  } else if (kind == Machine::kEvGrant) {
    grant_event_ = id;
  }
}

void Pcpu::OnEvent(uint32_t kind) {
  if (kind == Machine::kEvGrant) {
    return GrantCurrent();
  }
  if (kind == Machine::kEvResched) {
    resched_pending_ = false;
  }
  Reschedule();
}

void Pcpu::RequestReschedule() {
  if (resched_pending_) {
    return;
  }
  resched_pending_ = true;
  Arm(Machine::kEvResched, machine_->sim()->Now());
}

void Pcpu::StopCurrent() {
  Simulator* sim = machine_->sim();
  sim->Cancel(grant_event_);
  sim->Cancel(slice_end_event_);
  if (current_ == nullptr) {
    return;
  }
  Vcpu* v = current_;
  bool was_granted = granted_;
  if (granted_) {
    TimeNs ran = sim->Now() - granted_at_;
    v->total_runtime_ += ran;
    busy_time_ += ran;
    machine_->scheduler()->AccountRun(v, ran);
    granted_ = false;
  }
  // Complete all state mutation before the client callback: the guest may
  // legitimately call Block() from OnVcpuRevoked (e.g., the revocation
  // landed exactly at its last job's completion).
  v->pcpu_ = nullptr;
  v->last_pcpu_ = this;
  if (v->state_ == VcpuState::kRunning) {
    v->state_ = VcpuState::kRunnable;
  }
  current_ = nullptr;
  if (was_granted) {
    v->client()->OnVcpuRevoked(v);
  }
}

void Pcpu::Reschedule() {
  Simulator* sim = machine_->sim();
  HostScheduler* sched = machine_->scheduler();
  assert(sched != nullptr);
  const MachineConfig& cfg = machine_->config();
  OverheadStats& overhead = machine_->mutable_overhead();

  if (!online_) {
    // A failed/offlined core executes nothing: revoke whatever is here and
    // schedule no further events. Machine::SetPcpuOnline(true) re-arms us.
    StopCurrent();
    return;
  }

  // We are re-deciding; the previous slice-end timer (if any) is obsolete.
  sim->Cancel(slice_end_event_);

  // Bring the current VCPU's budget accounting up to date before asking the
  // scheduler, without revoking it yet: the scheduler may let it continue.
  Vcpu* prev = current_;
  SettleAccounting();

  TimeNs sched_cost = sched->ScheduleCost(this);
  ++overhead.schedule_calls;
  overhead.schedule_time += sched_cost;

  ScheduleDecision d = sched->PickNext(this);

  if (d.next == prev && prev != nullptr) {
    // Same VCPU continues: no context switch. The schedule cost is charged
    // to the overhead accounts but does not interrupt execution (in a real
    // kernel the decision happens on the same CPU inside the softirq; the
    // error is bounded by sched_cost and absorbed by the slack budget).
    run_until_ = d.run_until;
    if (d.run_until < kTimeNever) {
      Arm(Machine::kEvSliceEnd, d.run_until);
    }
    return;
  }

  StopCurrent();

  if (d.next == nullptr) {
    if (d.run_until < kTimeNever) {
      Arm(Machine::kEvSliceEnd, d.run_until);
    }
    return;
  }

  assert(d.next->state() == VcpuState::kRunnable);
  TimeNs dispatch_cost = cfg.context_switch_cost + sched->DispatchCost(d.next);
  TimeNs delay = sched_cost + dispatch_cost;
  ++overhead.context_switches;
  overhead.context_switch_time += dispatch_cost;
  bool migrated = d.next->last_pcpu() != nullptr && d.next->last_pcpu() != this;
  if (migrated) {
    ++overhead.migrations;
    overhead.migration_time += cfg.migration_cost;
    delay += cfg.migration_cost;
    ++d.next->migrations_;
  }
  if (d.next->evacuation_penalty_ > 0) {
    // One-shot salvage cost for a VCPU whose core died under it (state
    // reconstruction on the rescuing core), charged on top of the ordinary
    // migration cost.
    overhead.migration_time += d.next->evacuation_penalty_;
    delay += d.next->evacuation_penalty_;
    d.next->evacuation_penalty_ = 0;
  }
  if (machine_->dispatch_tracer()) {
    machine_->dispatch_tracer()(sim->Now(), *this, *d.next, migrated);
  }
  Dispatch(d.next, delay, d.run_until);
}

void Pcpu::SettleAccounting() {
  if (current_ == nullptr || !granted_) {
    return;
  }
  TimeNs now = machine_->sim()->Now();
  TimeNs ran = now - granted_at_;
  if (ran > 0) {
    current_->total_runtime_ += ran;
    busy_time_ += ran;
    machine_->scheduler()->AccountRun(current_, ran);
    granted_at_ = now;
  }
}

TimeNs Pcpu::LiveRunNs(const Vcpu* vcpu) const {
  if (current_ != vcpu || !granted_) {
    return 0;
  }
  return machine_->sim()->Now() - granted_at_;
}

void Pcpu::InjectOverhead(TimeNs duration) {
  OverheadStats& overhead = machine_->mutable_overhead();
  overhead.schedule_time += duration;
  if (current_ == nullptr || !granted_) {
    return;  // Idle or mid-switch: the interrupt overlaps existing overhead.
  }
  Vcpu* v = current_;
  TimeNs until = run_until_;
  StopCurrent();
  if (v->runnable()) {  // The revoke may have completed its last job.
    Dispatch(v, duration, until);
  }
}

void Pcpu::Dispatch(Vcpu* vcpu, TimeNs overhead_delay, TimeNs run_until) {
  assert(current_ == nullptr);
  Simulator* sim = machine_->sim();
  run_until_ = run_until;
  current_ = vcpu;
  vcpu->state_ = VcpuState::kRunning;
  vcpu->pcpu_ = this;
  granted_ = false;
  Arm(Machine::kEvGrant, sim->Now() + overhead_delay);
  if (run_until < kTimeNever) {
    Arm(Machine::kEvSliceEnd, run_until);
  }
}

void Pcpu::GrantCurrent() {
  assert(current_ != nullptr && !granted_);
  granted_ = true;
  granted_at_ = machine_->sim()->Now();
  current_->client()->OnVcpuGranted(current_);
}

}  // namespace rtvirt
