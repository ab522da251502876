// The physical host: PCPUs, VMs, the installed host scheduler, and the
// machine-wide cost model.

#ifndef SRC_HV_MACHINE_H_
#define SRC_HV_MACHINE_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/hv/hypercall.h"
#include "src/hv/overhead.h"
#include "src/hv/pcpu.h"
#include "src/hv/vm.h"
#include "src/metrics/counters.h"
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
  // Sets a core's frequency-scaling factor, which must round to [1, kUnit]
  // ppb (fatal otherwise): guest work on it progresses at `speed` useful ns
  // per wall-clock ns. The dispatched VCPU is revoked first so every grant
  // runs at a single constant speed, then the scheduler is notified and the
  // core re-dispatches.
  void SetPcpuSpeed(int pcpu, double speed);
  // Sum of online PCPU speed factors: the machine's real supply. Equals
  // Bandwidth::Cpus(num_pcpus()) on a healthy machine.
  Bandwidth EffectiveCapacity() const;
  int num_online_pcpus() const;
  const MachineStats& stats() const { return stats_; }

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

  // The runnable-VCPU index: bit g of word g / 64 is set exactly while the
  // VCPU with global id g is kRunnable. Derived state: restore rebuilds it.
  std::span<const uint64_t> runnable_index() const { return runnable_; }

  // Visits the VCPUs `pcpu` may dispatch (every runnable VCPU, and the one
  // running on `pcpu`) in global-id order from `from`, which is below the
  // VCPU count or 0, wrapping around, one word of the index at a time.
  // Returns the first VCPU that `accept` returns true for, or nullptr.
  template <typename Accept>
  Vcpu* FindDispatchable(const Pcpu* pcpu, size_t from, Accept&& accept) const {
    const Vcpu* cur = pcpu->current();
    const size_t own = cur != nullptr ? static_cast<size_t>(cur->global_id()) : SIZE_MAX;
    const uint64_t below_from = (uint64_t{1} << (from % 64)) - 1;
    // The start word from `from` up, the other words, then the start word
    // again below `from`.
    const size_t words = runnable_.size(), steps = words + (below_from != 0 ? 1 : 0);
    for (size_t k = 0, w = from / 64; k < steps; ++k, w = w + 1 == words ? 0 : w + 1) {
      uint64_t bits = runnable_[w] | (own / 64 == w ? uint64_t{1} << (own % 64) : 0);
      bits &= k == 0 ? ~below_from : k == words ? below_from : ~uint64_t{0};
      for (; bits != 0; bits &= bits - 1) {
        Vcpu* v = vcpus_by_global_id_[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        if (accept(v)) {
          return v;
        }
      }
    }
    return nullptr;
  }

 private:
  friend class Vm;
  friend class Vcpu;
  friend class Pcpu;

  // The one writer of a VCPU's state; keeps its bit in runnable_ in step.
  void SetVcpuState(Vcpu* v, VcpuState state) {
    uint64_t& word = runnable_[static_cast<size_t>(v->global_id()) / 64];
    uint64_t bit = uint64_t{1} << (v->global_id() % 64);
    word = state == VcpuState::kRunnable ? word | bit : word & ~bit;
    v->state_ = state;
  }

  Vcpu* RegisterVcpu(Vm* vm, int index);
  // Checkpoint field lists in byte order, each run by both SaveState and
  // RestoreState: the leading counters and one PCPU's, VM's or VCPU's
  // record. PCPU and VCPU records carry ids (a PCPU's current VCPU, a
  // VCPU's last PCPU), -1 for none, that save passes by value and restore
  // reads into the ints it maps to pointers.
  template <typename Self, typename Io>
  static void ScalarFields(Self& self, Io& io);
  template <typename P, typename Id, typename Io>
  static void PcpuFields(P& p, Id&& current, Io& io);
  template <typename V, typename Io>
  static void VmFields(V& vm, Io& io);
  template <typename V, typename Id, typename Io>
  static void VcpuFields(V& v, Id&& last_pcpu, Io& io);

  Simulator* sim_;
  MachineConfig config_;
  std::unique_ptr<HostScheduler> scheduler_;
  std::vector<std::unique_ptr<Pcpu>> pcpus_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<Vcpu*> vcpus_by_global_id_;
  std::vector<uint64_t> runnable_;  // See runnable_index().
  MachineStats stats_;
  OverheadStats overhead_;
  DispatchTracer dispatch_tracer_;
  HypercallInterceptor hypercall_interceptor_;
  bool started_ = false;
};

}  // namespace rtvirt

#endif  // SRC_HV_MACHINE_H_
