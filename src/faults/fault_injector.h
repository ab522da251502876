// Deterministic fault injection for the cross-layer channel.
//
// The paper's evaluation assumes a perfectly reliable substrate: every
// sched_rtvirt() hypercall succeeds after a fixed cost and every published
// deadline is instantly host-visible. Related work (arXiv:2206.00258,
// arXiv:2506.09825) argues hypervisor-layer timing perturbations and
// imperfections are first-class behaviors, so this subsystem makes them
// schedulable events: a seeded FaultPlan drives a FaultInjector from the
// existing Simulator event queue, and the same seed + plan reproduces the
// exact same fault trace (asserted by tests/faults_test.cc).
//
// Three fault classes:
//   (a) hypercall faults — per-attempt transient failures (-EAGAIN), dropped
//       calls (timeout, then -EAGAIN), latency spikes, and hard outage
//       windows during which every call fails;
//   (b) shared-memory staleness — guest-published deadlines become host-
//       visible only after a configurable coherence-window delay;
//   (c) VM failures — a VM crashes at a planned instant (its in-flight
//       host reservations are orphaned) and optionally restarts later.

#ifndef SRC_FAULTS_FAULT_INJECTOR_H_
#define SRC_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/hv/machine.h"
#include "src/metrics/counters.h"

namespace rtvirt {

struct FaultPlan {
  // Seed of the injector's private RNG stream; independent of the workload
  // RNG so enabling faults does not perturb workload generation.
  uint64_t seed = 1;

  // ---- (a) hypercall faults (per delivery attempt; retries re-roll) ----
  double hypercall_fail_prob = 0.0;   // Transient -EAGAIN.
  double hypercall_drop_prob = 0.0;   // Lost call: timeout, then -EAGAIN.
  double hypercall_spike_prob = 0.0;  // Latency spike on a delivered call.
  TimeNs hypercall_spike_latency = Us(100);
  // A dropped call costs the caller kHypercallDropTimeout (fault_injector.cc).
  // Hard outages: every hypercall issued in [start, end) fails. This is what
  // exhausts bounded retries and forces the guest channel into degraded mode.
  struct Outage {
    TimeNs start = 0;
    TimeNs end = 0;
  };
  std::vector<Outage> hypercall_outages;

  // ---- (b) shared-memory staleness ----
  // Guest deadline publications become host-visible only after this delay.
  TimeNs shared_page_visibility_delay = 0;

  // ---- (c) VM failures ----
  struct VmFailure {
    int vm_index = 0;
    TimeNs crash_at = 0;
    TimeNs restart_at = kTimeNever;  // kTimeNever: never restarts.
  };
  std::vector<VmFailure> vm_failures;

  // ---- (d) PCPU faults (capacity-degradation model) ----
  // Seeded, deterministic host-core events driven through
  // Machine::SetPcpuOnline / SetPcpuSpeed. Whether anyone *recovers* from
  // them is the scheduler's business (DpWrapConfig::pcpu_recovery); the
  // injector only makes the hardware misbehave on schedule.
  struct PcpuFault {
    enum class Kind {
      kPermanentFailure,  // Core offline at `at`, never returns (until ignored).
      kTransientOffline,  // Hotplug window: offline over [at, until).
      kDegrade,           // Frequency throttle to `speed` over [at, until);
                          // until = kTimeNever keeps it throttled forever.
    };
    Kind kind = Kind::kPermanentFailure;
    int pcpu = 0;
    TimeNs at = 0;
    TimeNs until = kTimeNever;
    double speed = 0.5;  // kDegrade only; in (0, 1], >= 1 ppb once rounded.
  };
  std::vector<PcpuFault> pcpu_faults;

  // ---- (e) adversarial guests (Byzantine behavior, not random faults) ----
  // A scheduled campaign of deliberately hostile cross-layer traffic from one
  // VM, exercising the DpWrapConfig::guest_trust defenses. Every event is
  // clock-driven with deterministic alternation (no RNG draws), so adding a
  // campaign never shifts the random-fault stream and the same seed + plan
  // reproduces the same trace.
  struct AdversarialGuest {
    enum class Kind {
      kDeadlineLies,     // Publishes past / sub-floor deadlines to its slot,
                         // with occasional out-of-range indices poking the
                         // shared-page guards.
      kHypercallStorm,   // Floods sched_rtvirt() with garbage requests.
      kBandwidthThrash,  // Alternates INC_BW/DEC_BW on an unused VCPU to
                         // force a replan per call (oscillation abuse).
    };
    Kind kind = Kind::kDeadlineLies;
    int vm_index = 0;
    TimeNs start = 0;
    TimeNs end = kTimeNever;   // Campaign window [start, end).
    TimeNs period = Us(500);   // Event cadence inside the window.
    // kBandwidthThrash only: the two reservations it flips between (at
    // period kThrashPeriod, fault_injector.cc).
    Bandwidth thrash_low = Bandwidth::FromDouble(0.05);
    Bandwidth thrash_high = Bandwidth::FromDouble(0.25);
  };
  std::vector<AdversarialGuest> adversarial_guests;

  // ---- (f) host-level faults (cluster federation) ----
  // Whole-host events one level above the PCPU model: a host crashes for
  // good, goes dark for a window, or loses a fraction of its capacity. These
  // are consumed by the cluster Federation (src/cluster/federation.h), which
  // drives them through Machine::SetPcpuOnline / SetPcpuSpeed on the
  // affected host and runs the evacuation / re-placement response; the
  // per-host FaultInjector ignores them (and they do not count toward
  // active()), so a single-host experiment handed a plan with host faults
  // simply never sees them fire.
  struct HostFault {
    enum class Kind {
      kCrash,   // Host dies at `at` and never returns (until ignored).
      kOutage,  // Host dark over [at, until), then heals.
      kDegrade, // Every core throttled to `factor` over [at, until);
                // until = kTimeNever keeps it degraded forever.
    };
    Kind kind = Kind::kCrash;
    int host = 0;
    TimeNs at = 0;
    TimeNs until = kTimeNever;
    double factor = 0.5;  // kDegrade only; in (0, 1], >= 1 ppb once rounded.
  };
  std::vector<HostFault> host_faults;

  // ---- (g) controller-adversary interaction events (SLO controller) ----
  // Targeted windows stressing the src/control feedback path at its worst
  // moments: a per-VM channel outage (every hypercall from that VM fails —
  // e.g. mid flash-crowd, right after the controller raised the tenant's
  // reservation, forcing the fail-static freeze to hold last-good state) and
  // a stale-shared-page window (the VM's deadline publications go host-
  // visible late — e.g. during a DEC, so the host briefly schedules against
  // deadlines from the pre-shrink reservation). Both are clock-driven and
  // draw no randomness, so adding them never shifts the random-fault stream.
  struct ControlFault {
    enum class Kind {
      kChannelOutage,  // Every hypercall from vm_index fails over [at, until).
      kStalePage,      // vm_index's page publications delayed over [at, until).
    };
    Kind kind = Kind::kChannelOutage;
    int vm_index = 0;
    TimeNs at = 0;
    TimeNs until = 0;
    TimeNs delay = Us(200);  // kStalePage only: added visibility delay.
  };
  std::vector<ControlFault> control_faults;

  bool active() const {
    return hypercall_fail_prob > 0 || hypercall_drop_prob > 0 ||
           hypercall_spike_prob > 0 || !hypercall_outages.empty() ||
           shared_page_visibility_delay > 0 || !vm_failures.empty() ||
           !pcpu_faults.empty() || !adversarial_guests.empty() ||
           !control_faults.empty();
  }

  // Structural validation, run by the FaultInjector constructor (which
  // RTVIRT_CHECKs the result): rejects overlapping outage windows, negative
  // or empty durations, out-of-range PCPU ids, bad degrade speeds, VM
  // restarts that precede their crash, and out-of-range or malformed
  // VM-indexed entries (vm_failures, adversarial_guests). Returns an empty
  // string when valid, else a message naming the offending entry. Pass the
  // machine's VM count as num_vms to bounds-check VM indices; -1 skips those
  // checks (plan built before the VMs exist — Arm() re-validates with the
  // real count). Pass the cluster size as num_hosts to check host_faults
  // (host ids, per-host window overlap, degrade factors); -1 skips the host
  // id bounds check but still rejects structurally malformed entries — the
  // Federation constructor re-validates with the real host count.
  std::string Validate(int num_pcpus, int num_vms = -1, int num_hosts = -1) const;
};

class FaultInjector : public ckpt::Checkpointable {
 public:
  FaultInjector(Machine* machine, FaultPlan plan);

  // Installs the hypercall interceptor, arms the shared-page staleness on
  // every VM currently in the machine and schedules the planned VM failures.
  // Call after all VMs exist (Experiment arms on Run()). Idempotent.
  void Arm();
  bool armed() const { return armed_; }

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // Crash/restart observers, run after the machine-level state change. The
  // experiment harness registers a guest-OS reset on crash; workloads
  // register re-registration of their RTAs on restart.
  using VmHandler = std::function<void(Vm*)>;
  void AddCrashHandler(VmHandler handler) { crash_handlers_.push_back(std::move(handler)); }
  void AddRestartHandler(VmHandler handler) { restart_handlers_.push_back(std::move(handler)); }

  // ---- Checkpointing (src/checkpoint) ----
  // Every planned event is identified by its index into the (identical-by-
  // construction) FaultPlan, so a saved (kind, payload) names the exact plan
  // entry the event fires.
  static constexpr const char* kCkptSection = "faults";
  enum EventKind : uint32_t {
    kEvVmCrash = 1,           // Payload = vm_failures index.
    kEvVmRestart = 2,         // Payload = vm_failures index.
    kEvPcpuFaultStart = 3,    // Payload = pcpu_faults index.
    kEvPcpuFaultEnd = 4,      // Payload = pcpu_faults index.
    kEvAdversaryTick = 5,     // Payload = (campaign index << 32) | step.
    kEvControlStaleStart = 6, // Payload = control_faults index.
    kEvControlStaleEnd = 7,   // Payload = control_faults index.
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

 private:
  Machine::HypercallFault OnHypercall(Vcpu* caller, const HypercallArgs& args);
  bool InOutage(TimeNs now) const;
  // True when `caller`'s VM sits inside a kChannelOutage window.
  bool InControlOutage(const Vcpu* caller, TimeNs now) const;
  // One event of adversarial campaign `idx`; `step` drives the deterministic
  // alternation (lie flavors, thrash direction) without touching the RNG.
  void AdversaryTick(size_t idx, uint64_t step);

  // Planned-event bodies, indexed into the FaultPlan.
  void FireVmCrash(size_t i);
  void FireVmRestart(size_t i);
  void FirePcpuFaultStart(size_t i);
  void FirePcpuFaultEnd(size_t i);
  void FireControlStaleStart(size_t i);
  void FireControlStaleEnd(size_t i);

  Machine* machine_;
  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  std::vector<VmHandler> crash_handlers_;
  std::vector<VmHandler> restart_handlers_;
  bool armed_ = false;
};

}  // namespace rtvirt

#endif  // SRC_FAULTS_FAULT_INJECTOR_H_
