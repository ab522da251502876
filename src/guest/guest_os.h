// Guest operating system model: pEDF process scheduling with cross-layer
// cooperation (paper section 3.2).
//
// The guest schedules RTAs with partitioned EDF: each registered RTA is
// pinned to one VCPU and every VCPU runs the earliest-deadline pending job
// among its pinned RTAs. Registration performs guest-level admission control
// (first-fit, with reshuffling when bandwidth is fragmented and CPU hotplug
// when the VM has too few VCPUs) and drives the installed CrossLayerPolicy,
// which under RTVirt issues sched_rtvirt() hypercalls and publishes next
// earliest deadlines via shared memory. Background tasks run in leftover
// time at the lowest priority.

#ifndef SRC_GUEST_GUEST_OS_H_
#define SRC_GUEST_GUEST_OS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/guest/cross_layer.h"
#include "src/guest/task.h"
#include "src/hv/machine.h"
#include "src/hv/vcpu.h"
#include "src/hv/vm.h"
#include "src/metrics/counters.h"
#include "src/sim/simulator.h"

namespace rtvirt {

// Guest syscall status codes.
constexpr int kGuestOk = 0;
constexpr int kGuestErrBusy = -16;    // -EBUSY: admission failed.
constexpr int kGuestErrInvalid = -22;  // -EINVAL.

// Guest real-time scheduling class. The paper (3.2) modifies Linux's
// SCHED_DEADLINE from gEDF to pEDF so that per-VCPU parameters can be
// derived cheaply; gEDF is kept for the design-choice ablation.
enum class GuestSchedClass {
  kPartitionedEdf,  // pEDF: RTAs pinned to VCPUs (RTVirt's choice).
  kGlobalEdf,       // gEDF: RTAs migrate freely between VCPUs.
};

struct GuestConfig {
  GuestSchedClass sched_class = GuestSchedClass::kPartitionedEdf;
  // Whether registration may add VCPUs online when the existing ones cannot
  // fit a new RTA (paper: "RTVirt uses CPU hotplug to add additional VCPUs").
  bool allow_hotplug = false;
  int max_vcpus = 64;

  // Mixed-criticality overload control (pEDF only). When enabled, admission
  // failures degrade lower-criticality reservations instead of rejecting the
  // newcomer — elastic reservations are compressed toward min_slice and, if
  // that is not enough, the lowest-criticality RTAs are shed (suspended) —
  // and a periodic poll of the host's shared-page pressure signal degrades
  // proactively under host overload and re-inflates when pressure clears.
  // When disabled (the default) no events are scheduled and behavior is
  // identical to the classic binary admission test. The ladder, with its
  // hysteresis and ceiling constants, is guest_overload.cc.
  struct OverloadControl {
    bool enabled = false;
  };
  OverloadControl overload;
};

class GuestOs : public VcpuClient, public ckpt::Checkpointable {
 public:
  explicit GuestOs(Vm* vm, GuestConfig config = {});
  ~GuestOs() override;
  GuestOs(const GuestOs&) = delete;
  GuestOs& operator=(const GuestOs&) = delete;

  Vm* vm() const { return vm_; }

  // Adds a VCPU to the VM and places it under this guest's control.
  Vcpu* AddVcpu();
  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }

  // Installs the cross-layer policy (RTVirt guests) — defaults to the inert
  // policy (traditional, host-unaware guests).
  void SetCrossLayer(std::unique_ptr<CrossLayerPolicy> policy);
  CrossLayerPolicy* cross_layer() const { return cross_layer_.get(); }

  // Caps the RTA bandwidth admitted on a VCPU (baselines: the CARTS-derived
  // interface Θ/Π; RTVirt: the default of one full CPU).
  void SetVcpuCapacity(int vcpu_index, Bandwidth capacity);

  // ---- Task surface ----
  Task* CreateTask(std::string name);
  // Creates an always-runnable CPU-bound background task.
  Task* CreateBackgroundTask(std::string name);

  // sched_setattr(): registers `task` as an RTA or changes its parameters.
  // Returns kGuestOk, kGuestErrInvalid for parameters RtaParams::Valid
  // refuses, or kGuestErrBusy if admission fails at either level.
  // `bw_reason` is the kBwReason* code carried by the resulting hypercall for
  // an in-place parameter change of a registered RTA (the SLO controller
  // passes kBwReasonSloControl so its raises are watermark-limited and never
  // read as fresh overload); registration always uses kBwReasonAdmission.
  int SchedSetAttr(Task* task, const RtaParams& params,
                   int64_t bw_reason = kBwReasonAdmission);
  // RTA unregisters (terminates or becomes non-time-sensitive).
  int SchedUnregister(Task* task);

  // Releases one job of `work` CPU time due at `deadline` for a registered
  // RTA (driven by the workload generators). Dropped silently while the VM
  // is crashed or the task is unregistered (fault model: the reborn guest
  // has not re-registered it yet).
  void ReleaseJob(Task* task, TimeNs work, TimeNs deadline);

  // Fault model: rebuilds the guest scheduler state after a VM crash. Every
  // task is unregistered and its queued jobs dropped (workloads re-register
  // on restart), per-VCPU run state is cleared, and the cross-layer policy
  // forgets its channel state — the host-side leftovers are the watchdog's
  // problem, not the reborn guest's.
  void ResetAfterCrash();

  // Fault model: called after the VM restarts. Wakes any VCPU that already
  // has runnable work (background tasks survive the crash as code, and
  // nothing else would wake them until the next job release).
  void OnVmRestart();

  // ---- Introspection (tests, benches) ----
  // A VCPU's reservation, as its pin set derives it (section 3.2).
  Bandwidth VcpuReservedBw(int vcpu_index) const { return Reserved(vcpus_[vcpu_index]); }
  TimeNs VcpuMinPeriod(int vcpu_index) const { return MinPeriod(vcpus_[vcpu_index].rtas); }
  TimeNs NextEarliestDeadline(int vcpu_index) const;
  GuestSchedClass sched_class() const { return config_.sched_class; }
  const GuestOverloadStats& overload_stats() const { return overload_stats_; }

  // Self-check of the guest scheduler's bookkeeping invariants (used by the
  // cross-layer invariant auditor). Returns human-readable violation
  // descriptions; empty when consistent.
  std::vector<std::string> AuditInvariants() const;

  // VcpuClient:
  void OnVcpuGranted(Vcpu* vcpu) override;
  void OnVcpuRevoked(Vcpu* vcpu) override;

  // ---- Checkpointing (src/checkpoint) ----
  // Section name "guest.<vmid>"; it also owns the pressure-poll tick and the
  // per-VCPU job-completion events.
  const std::string& ckpt_section() const { return ckpt_section_; }
  enum EventKind : uint32_t {
    kEvPressure = 1,    // Overload-control pressure poll (recurring).
    kEvCompletion = 2,  // Job completion; payload = VCPU index.
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

 private:
  struct VcpuRun {
    Vcpu* vcpu = nullptr;
    std::vector<Task*> rtas;  // Pinned RTAs (pEDF); the reservation derives from them.
    Bandwidth capacity = Bandwidth::One();
    bool on_cpu = false;  // Granted a PCPU right now.
    Task* running = nullptr;
    TimeNs run_start = 0;
    // Speed factor of the PCPU this run started on (capacity-degradation
    // model). The host revokes before any speed change, so it is constant for
    // the whole run: wall time stretches by 1/speed, progress banks at speed.
    int64_t run_speed_ppb = Bandwidth::kUnit;
    Simulator::EventId completion_event;
  };

  Simulator* sim() const { return vm_->machine()->sim(); }
  // The one schedule path of this guest's events (kEv*); keeps the
  // completion events' cancel handles.
  void Arm(uint32_t kind, uint64_t payload, TimeNs when);
  // Checkpoint field lists in byte order, each run by both SaveState and
  // RestoreState: the section's leading scalars and counters, and one
  // task's record after its name and kind.
  template <typename Self, typename Io>
  static void ScalarFields(Self& self, Io& io);
  template <typename T, typename Io>
  static void TaskFields(T& t, Io& io);
  VcpuRun& RunOf(Vcpu* vcpu) { return vcpus_[vcpu->index()]; }

  // EDF pick: earliest-deadline pending RTA job (pEDF: among the VCPU's
  // pinned RTAs; gEDF: among all RTAs), else a background task; never a task
  // running on a sibling VCPU.
  Task* PickTask(VcpuRun& vr);
  void Redispatch(VcpuRun& vr);
  void StartRunning(VcpuRun& vr, Task* task);
  void SuspendRunning(VcpuRun& vr);
  void FinishFrontJob(VcpuRun& vr, Task* task);
  void OnJobCompletion(VcpuRun& vr);
  void PublishDeadline(VcpuRun& vr);
  bool RunningElsewhere(const Task* task, const VcpuRun& except) const;
  // Earliest upcoming deadline among `rtas` (the next-deadline rule that
  // both scheduling classes publish).
  TimeNs EarliestDeadline(const std::vector<Task*>& rtas) const;

  // gEDF variants: tasks are not pinned; every VCPU carries an equal share
  // of the total bandwidth and publishes the globally earliest deadline.
  bool global_edf() const { return config_.sched_class == GuestSchedClass::kGlobalEdf; }
  int SchedSetAttrGlobal(Task* task, const RtaParams& params);
  int SchedUnregisterGlobal(Task* task);
  // Re-requests every VCPU's equal share of `total`; returns kHypercallOk if
  // all were granted, else rolls the granted ones back to the share of
  // global_rtas_ as it stands (callers change it only after a success).
  int64_t RequestGlobalShares(Bandwidth total, TimeNs min_period);
  void PublishGlobalDeadline();

  // Admission helpers.
  int FindFirstFit(Bandwidth bw, int exclude_index) const;
  void PinTask(Task* task, int vcpu_index, const RtaParams& params);
  void UnpinTask(Task* task);
  // The sum of the effective bandwidths pinned to `vr`, in pin-set order: the
  // bandwidth its reservation requests.
  static Bandwidth Reserved(const VcpuRun& vr);
  // DEC_BW to the reservation derived from `vr`'s pin set, then publish its
  // next deadline and redispatch: the tail of an unregister, an in-place
  // parameter decrease, a compression and a shed.
  void Shrink(VcpuRun& vr, int64_t reason);
  // gEDF: the sum of the registered RTAs' bandwidths, which every VCPU's
  // equal share divides.
  Bandwidth GlobalTotal() const;
  // Smallest period among `rtas` other than `except`, and `period`: the
  // period a VCPU's (or, under gEDF, every VCPU's) reservation requests.
  static TimeNs MinPeriod(const std::vector<Task*>& rtas, TimeNs period = kTimeNever,
                          const Task* except = nullptr);
  // Attempts to re-partition all RTAs (plus a new one of bandwidth `bw`)
  // first-fit-decreasing; applies the moves and returns the target VCPU for
  // the new RTA, or -1 with no task moved if no packing exists or the
  // channel refuses one of the increases.
  int ReshuffleFor(Bandwidth bw);

  // ---- Overload control: mixed-criticality degradation (guest_overload.cc) ----
  // Cadence of the host-pressure poll (and of re-inflation steps); the
  // constructor arms the first poll.
  static constexpr TimeNs kPressurePoll = Ms(5);
  static int CritLevel(const Task* t) {
    return static_cast<int>(t->params().criticality);
  }
  // Periodic poll of the host's shared-page pressure signal.
  void PressureTick();
  // Compresses every elastic pinned task at or below `max_level` to its
  // min_slice; returns whether anything changed.
  bool CompressUpTo(int max_level);
  // Sheds the worst victim at or below `max_level` (lowest criticality
  // first, largest effective bandwidth within a level); false if none.
  bool ShedOneUpTo(int max_level);
  // One admission-time degradation step touching only tasks of strictly
  // lower criticality than `crit`; false when nothing is left to degrade.
  bool DegradeStepFor(Criticality crit);
  // Drops a shed task from the shed list and unregisters it; it holds no pin
  // or host reservation, so this is purely local.
  void ForgetShed(Task* task);
  bool TryResumeShed();   // Re-admit the highest-criticality shed task.
  bool TryExpandOne();    // Re-inflate one compressed reservation in place.
  // Whether the host's published headroom covers adding `delta` bandwidth
  // (true when the host never published — fall back to probing).
  bool HostHeadroomCovers(Bandwidth delta) const;

  Vm* vm_;
  GuestConfig config_;
  std::string ckpt_section_;
  std::unique_ptr<CrossLayerPolicy> cross_layer_;
  std::vector<VcpuRun> vcpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Task*> background_;
  std::vector<Task*> global_rtas_;  // gEDF: the unpinned registered RTAs.
  size_t bg_cursor_ = 0;
  std::vector<Task*> shed_;  // Suspended by overload control.
  GuestOverloadStats overload_stats_;
  int pressure_ticks_under_ = 0;   // Consecutive pressured polls (clamped).
  int pressure_clear_ticks_ = 0;   // Consecutive pressure-free polls (clamped).
};

}  // namespace rtvirt

#endif  // SRC_GUEST_GUEST_OS_H_
