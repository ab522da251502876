// Pluggable host-level (VMM) scheduler interface.
//
// Mirrors the hook set of Xen's `struct scheduler`: VCPU insertion/removal,
// wake/block notifications, and a do_schedule-style PickNext that returns the
// next VCPU and the time at which the scheduler wants to be re-invoked.
// RTVirt's DP-WRAP scheduler, RT-Xen's gEDF/deferrable-server scheduler, the
// Credit scheduler and the plain EDF-server scheduler all implement this.

#ifndef SRC_HV_HOST_SCHEDULER_H_
#define SRC_HV_HOST_SCHEDULER_H_

#include <cstdint>
#include <string_view>

#include "src/common/time.h"
#include "src/hv/hypercall.h"

namespace rtvirt {

class Machine;
class Pcpu;
class Vcpu;

struct ScheduleDecision {
  Vcpu* next = nullptr;          // nullptr: idle.
  TimeNs run_until = kTimeNever;  // Absolute time to re-invoke PickNext.
};

class HostScheduler {
 public:
  virtual ~HostScheduler() = default;

  virtual std::string_view name() const = 0;

  // Called once when installed into a machine.
  virtual void Attach(Machine* machine) { machine_ = machine; }

  // VCPU lifecycle (also used for CPU hotplug). The machine never removes a
  // VCPU, so the default ignores VcpuRemoved.
  virtual void VcpuInserted(Vcpu* vcpu) = 0;
  virtual void VcpuRemoved(Vcpu* vcpu) { (void)vcpu; }

  // A blocked VCPU became runnable / a VCPU ran out of work. The default
  // ignores a block: a scheduler skips non-runnable VCPUs when it picks.
  virtual void VcpuWake(Vcpu* vcpu) = 0;
  virtual void VcpuBlock(Vcpu* vcpu) { (void)vcpu; }

  // Pick what `pcpu` runs next, starting now. The machine re-invokes this at
  // `run_until`, or earlier if the PCPU is tickled. Never called for an
  // offline PCPU.
  virtual ScheduleDecision PickNext(Pcpu* pcpu) = 0;

  // A PCPU's capacity just changed: it went offline/online or its speed
  // factor moved (Machine::SetPcpuOnline / SetPcpuSpeed). Invoked after the
  // machine state is updated and any dispatched VCPU was revoked, before the
  // survivors are tickled. Capacity-aware schedulers re-plan here; the
  // default ignores the event (a frozen-layout scheduler keeps planning
  // against nominal capacity and simply loses whatever it lays onto dead or
  // slowed cores).
  virtual void PcpuCapacityChanged(Pcpu* pcpu) { (void)pcpu; }

  // Notification that `vcpu` just executed for `ran` ns (budget accounting).
  virtual void AccountRun(Vcpu* vcpu, TimeNs ran) { (void)vcpu, (void)ran; }

  // sched_rtvirt() handler; only cross-layer-capable schedulers override it.
  virtual int64_t Hypercall(Vcpu* caller, const HypercallArgs& args) {
    (void)caller, (void)args;
    return kHypercallNotSupported;
  }

  // Virtual cost of one PickNext invocation, charged as overhead before the
  // chosen VCPU starts (algorithm-dependent; see Table 6 discussion).
  virtual TimeNs ScheduleCost(const Pcpu* pcpu) const {
    (void)pcpu;
    return 0;
  }

  // Extra per-dispatch cost when switching to `next` (e.g., Credit's
  // softirq/timer wake path), charged on top of the context-switch cost.
  virtual TimeNs DispatchCost(const Vcpu* next) const {
    (void)next;
    return 0;
  }

 protected:
  Machine* machine_ = nullptr;
};

}  // namespace rtvirt

#endif  // SRC_HV_HOST_SCHEDULER_H_
