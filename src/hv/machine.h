// The physical host: PCPUs, VMs, the installed host scheduler, and the
// machine-wide cost model.

#ifndef SRC_HV_MACHINE_H_
#define SRC_HV_MACHINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/hv/hypercall.h"
#include "src/hv/overhead.h"
#include "src/hv/pcpu.h"
#include "src/hv/vm.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct MachineConfig {
  // Schedulable PCPUs. The paper's testbed has 16 cores with one dedicated
  // to Dom0, leaving 15 for DomUs; Dom0 is not modelled beyond that.
  int num_pcpus = 15;
  // Cost of one VCPU context switch on a PCPU.
  TimeNs context_switch_cost = 1500;  // 1.5 us.
  // Extra cost when a VCPU resumes on a different PCPU than it last ran on
  // (cold caches); charged on top of the context switch.
  TimeNs migration_cost = 3000;  // 3 us.
  // Cost of one sched_rtvirt() hypercall (paper section 4.5: ~10 us).
  TimeNs hypercall_cost = 10000;
  // One-shot penalty charged (on top of the migration cost) when a VCPU is
  // next dispatched after its PCPU failed under it: register/lazy-FPU state
  // salvage and cold everything on the rescuing core. Benches derive it from
  // cluster/migration_model's stop-and-copy estimate for the VCPU's hot
  // working set. 0 (the default) keeps evacuations at plain migration cost.
  TimeNs evacuation_penalty = 0;
};

class Machine : public ckpt::Checkpointable {
 public:
  Machine(Simulator* sim, MachineConfig config);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Simulator* sim() const { return sim_; }
  const MachineConfig& config() const { return config_; }

  // Must be called before Start(); the machine owns the scheduler.
  void SetScheduler(std::unique_ptr<HostScheduler> scheduler);
  HostScheduler* scheduler() const { return scheduler_.get(); }

  Vm* AddVm(std::string name);
  int num_vms() const { return static_cast<int>(vms_.size()); }
  Vm* vm(int index) const { return vms_[index].get(); }

  int num_pcpus() const { return static_cast<int>(pcpus_.size()); }
  Pcpu* pcpu(int index) const { return pcpus_[index].get(); }

  // ---- PCPU fault & capacity-degradation model ----
  // Takes a core offline (fault/hotplug-remove) or brings it back. Going
  // offline forcibly revokes the dispatched VCPU (which becomes runnable
  // again and is owed MachineConfig::evacuation_penalty on its next
  // dispatch), notifies the host scheduler via PcpuCapacityChanged, and
  // tickles the surviving cores so stranded VCPUs find a new home.
  void SetPcpuOnline(int pcpu, bool online);
  // Sets a core's frequency-scaling factor in (0, 1]: guest work on it
  // progresses at `speed` useful ns per wall-clock ns. The dispatched VCPU
  // is revoked first so every grant runs at a single constant speed, then
  // the scheduler is notified and the core re-dispatches.
  void SetPcpuSpeed(int pcpu, double speed);
  // Sum of online PCPU speed factors: the machine's real supply. Equals
  // Bandwidth::Cpus(num_pcpus()) on a healthy machine.
  Bandwidth EffectiveCapacity() const;
  int num_online_pcpus() const;
  // VCPUs forcibly revoked by SetPcpuOnline(pcpu, false) so far.
  uint64_t pcpu_evacuations() const { return pcpu_evacuations_; }

  // Kicks every PCPU's scheduler once; call after creating VMs and workloads
  // (additional VMs/VCPUs may still be added later).
  void Start();

  // Guest-initiated hypercall; charges the configured cost and dispatches to
  // the host scheduler. Transient conditions on the channel itself (a crashed
  // caller VM, or an injected fault — see SetHypercallInterceptor) return
  // kHypercallAgain without reaching the scheduler.
  int64_t Hypercall(Vcpu* caller, const HypercallArgs& args);

  // Fault injection on the hypercall path. The interceptor runs before the
  // call is dispatched and decides whether it proceeds, transiently fails
  // (-EAGAIN), or is dropped (the guest observes a timeout, then -EAGAIN);
  // `extra_latency` is charged to the hypercall overhead account either way.
  struct HypercallFault {
    enum class Action {
      kNone,  // Deliver normally.
      kFail,  // Transient failure: return kHypercallAgain.
      kDrop,  // Lost call: never dispatched, caller times out to kHypercallAgain.
    };
    Action action = Action::kNone;
    TimeNs extra_latency = 0;
  };
  using HypercallInterceptor = std::function<HypercallFault(Vcpu*, const HypercallArgs&)>;
  void SetHypercallInterceptor(HypercallInterceptor interceptor) {
    hypercall_interceptor_ = std::move(interceptor);
  }

  // Fault model: kills / revives a whole VM. Crashing forcibly blocks every
  // VCPU (revoking any held PCPUs through the normal scheduler path); the
  // VM's host-side reservations are deliberately left installed — they are
  // orphaned until a watchdog reclaims them. Restart only clears the crashed
  // flag; the guest OS model is responsible for rebuilding its own state.
  void CrashVm(Vm* vm);
  void RestartVm(Vm* vm);

  const OverheadStats& overhead() const { return overhead_; }
  OverheadStats& mutable_overhead() { return overhead_; }

  // Notifications from Vcpu wake/block; also used by guests.
  void NotifyWake(Vcpu* vcpu);
  void NotifyBlock(Vcpu* vcpu);

  // Optional dispatch tracer: called on every VCPU dispatch with the target
  // PCPU, the VCPU, and whether the dispatch was counted as a migration.
  // Used by the schedule-trace tooling (Figure 1) and by tests.
  using DispatchTracer = std::function<void(TimeNs, const Pcpu&, const Vcpu&, bool migrated)>;
  void SetDispatchTracer(DispatchTracer tracer) { dispatch_tracer_ = std::move(tracer); }
  const DispatchTracer& dispatch_tracer() const { return dispatch_tracer_; }

  // ---- Checkpoint support (src/checkpoint) ----
  // The machine section covers PCPUs (incl. their pending dispatch events),
  // VMs, VCPUs, shared pages, and overhead accounts. PCPU events target the
  // machine, which hands them to the PCPU named by the payload.
  static constexpr const char* kCkptSection = "machine";
  enum EventKind : uint32_t {
    kEvResched = 1,   // payload = pcpu id; the coalesced reschedule softirq.
    kEvSliceEnd = 2,  // payload = pcpu id; dispatch horizon timer.
    kEvGrant = 3,     // payload = pcpu id; end of context-switch overhead.
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;
  // Resolves a VCPU global id (checkpoints, event payloads); nullptr if no
  // such id.
  Vcpu* VcpuByGlobalId(int global_id) const;

 private:
  friend class Vm;
  friend class Pcpu;

  Vcpu* RegisterVcpu(Vm* vm, int index);

  Simulator* sim_;
  MachineConfig config_;
  std::unique_ptr<HostScheduler> scheduler_;
  std::vector<std::unique_ptr<Pcpu>> pcpus_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<Vcpu*> vcpus_by_global_id_;
  uint64_t pcpu_evacuations_ = 0;
  OverheadStats overhead_;
  DispatchTracer dispatch_tracer_;
  HypercallInterceptor hypercall_interceptor_;
  bool started_ = false;
};

}  // namespace rtvirt

#endif  // SRC_HV_MACHINE_H_
