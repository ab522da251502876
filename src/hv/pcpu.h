// Physical CPU: runs one VCPU at a time under the host scheduler's control.

#ifndef SRC_HV_PCPU_H_
#define SRC_HV_PCPU_H_

#include <cstdint>

#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class Machine;
class Vcpu;

class Pcpu {
 public:
  Pcpu(Machine* machine, int id);
  Pcpu(const Pcpu&) = delete;
  Pcpu& operator=(const Pcpu&) = delete;

  int id() const { return id_; }
  Machine* machine() const { return machine_; }

  // Fault/capacity model (set via Machine::SetPcpuOnline / SetPcpuSpeed).
  // An offline PCPU executes nothing: its scheduler is never consulted and a
  // reschedule only revokes whatever was dispatched here. A throttled PCPU
  // (speed < 1.0) still executes, but guest work progresses at `speed` useful
  // ns per wall-clock ns — consumed CPU time is stretched by 1/speed.
  bool online() const { return online_; }
  int64_t speed_ppb() const { return speed_ppb_; }  // Bandwidth::kUnit = full speed.
  double speed() const {
    return static_cast<double>(speed_ppb_) / static_cast<double>(Bandwidth::kUnit);
  }

  // The VCPU currently dispatched here (nullptr when idle). A dispatched
  // VCPU may still be paying context-switch overhead and not yet granted.
  Vcpu* current() const { return current_; }
  bool idle() const { return current_ == nullptr; }
  // When the current dispatch expires (kTimeNever when idle or open-ended).
  // Lets a scheduler that finds its VCPU held by another PCPU distinguish a
  // stop event queued at this very instant from a genuinely longer grant.
  TimeNs run_until() const { return current_ == nullptr ? kTimeNever : run_until_; }

  // Tickle: request a (coalesced) re-invocation of the scheduler now.
  // Mirrors raising SCHEDULE_SOFTIRQ on the target CPU in Xen.
  void RequestReschedule();

  // Steals `duration` ns from whatever is currently executing here (timer
  // ticks, accounting interrupts). The running VCPU is suspended and resumes
  // after the delay; the time is charged to the machine's schedule overhead.
  void InjectOverhead(TimeNs duration);

  // Brings run-time accounting up to date without a reschedule: credits the
  // elapsed run to the VCPU and the scheduler's AccountRun. Schedulers call
  // this before budget replenishments so consumption is never charged
  // against a fresh budget.
  void SettleAccounting();

  // Live execution time of `vcpu` in its current dispatch (0 if not here).
  TimeNs LiveRunNs(const Vcpu* vcpu) const;

 private:
  friend class Machine;
  friend class Vcpu;

  // Runs the scheduling pipeline: stop current, charge costs, pick next,
  // dispatch. Only ever invoked from a simulator event.
  void Reschedule();

  // Stops the currently dispatched VCPU (accounting its run time) and leaves
  // the PCPU idle. Safe to call when already idle.
  void StopCurrent();

  void Dispatch(Vcpu* vcpu, TimeNs overhead_delay, TimeNs run_until);
  void GrantCurrent();

  // This PCPU's events (Machine::kEv*) are machine events with payload = id,
  // so they checkpoint under the machine section. Arm is their one schedule
  // path (it keeps the cancel handles); OnEvent runs them.
  void Arm(uint32_t kind, TimeNs when);
  void OnEvent(uint32_t kind);
  // Points the slice-end timer at `run_until`, moving the pending one in
  // place, or cancels it when the horizon is open-ended or a reschedule is
  // queued. A queued kEvResched is at this very instant and sorts before any
  // timer armed now, and its Reschedule cancels or re-arms the slice-end on
  // every path, so a timer armed under it could never fire.
  void ArmSliceEnd(TimeNs run_until);

  Machine* machine_;
  int id_;
  bool online_ = true;
  int64_t speed_ppb_ = Bandwidth::kUnit;
  Vcpu* current_ = nullptr;
  bool granted_ = false;       // Guest notified that it is running.
  TimeNs granted_at_ = 0;      // Start of useful execution.
  bool resched_pending_ = false;
  TimeNs run_until_ = kTimeNever;  // Current dispatch horizon.
  Simulator::EventId grant_event_;
  Simulator::EventId slice_end_event_;
};

}  // namespace rtvirt

#endif  // SRC_HV_PCPU_H_
