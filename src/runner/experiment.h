// Experiment harness shared by the benches, examples and integration tests:
// builds a machine with one of the four schedulers under comparison and
// wires guests to the matching cross-layer policy.

#ifndef SRC_RUNNER_EXPERIMENT_H_
#define SRC_RUNNER_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/audit/invariant_auditor.h"
#include "src/baselines/credit.h"
#include "src/checkpoint/checkpoint.h"
#include "src/common/rng.h"
#include "src/baselines/server_edf.h"
#include "src/control/slo_controller.h"
#include "src/faults/fault_injector.h"
#include "src/guest/guest_os.h"
#include "src/hv/machine.h"
#include "src/metrics/resilience.h"
#include "src/perf/alloc_hooks.h"
#include "src/rtvirt/dpwrap.h"
#include "src/rtvirt/guest_channel.h"
#include "src/sim/simulator.h"

namespace rtvirt {

enum class Framework {
  kRtvirt,      // pEDF guest + DP-WRAP host + cross-layer channel.
  kRtXen,       // pEDF guest + gEDF/deferrable-server host (CARTS interfaces).
  kCredit,      // Xen default: proportional share with boost.
  kVanillaEdf,  // Two-level EDF without cross-layer awareness (Figure 1).
};

const char* FrameworkName(Framework framework);

struct ExperimentConfig {
  Framework framework = Framework::kRtvirt;
  MachineConfig machine;
  DpWrapConfig dpwrap;
  ServerEdfConfig server_edf;
  CreditConfig credit;
  GuestChannelOptions channel;
  // Fault-injection plan; an inactive (default) plan leaves the machine
  // untouched. When active, Run() arms the injector on first call and wires
  // crash/restart handling to the guests (ResetAfterCrash / OnVmRestart).
  FaultPlan faults;
  // Cross-layer invariant auditor; disabled by default (no auditor object is
  // even created, and no events are scheduled).
  AuditorConfig audit;
  // Closed-loop SLO controller (src/control); disabled by default (no
  // controller object is created and no events are scheduled, so default-path
  // reports stay byte-identical). Tenants are attached via
  // controller()->Watch(...); the decision tick is armed on first Run().
  ControlConfig control;
  // Print the allocation section (warm-up vs steady-state operator-new
  // counts, peak RSS) in the standard report. Off by default so existing
  // reports stay byte-identical; the RTVIRT_REPORT_ALLOC environment
  // variable force-enables it (used by the CI fault-soak job).
  bool report_alloc = false;
  uint64_t seed = 42;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  Simulator& sim() { return sim_; }
  Machine& machine() { return *machine_; }
  const ExperimentConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  // Creates a VM with `vcpus` VCPUs under a guest OS; RTVirt guests get the
  // hypercall/shared-memory channel installed.
  GuestOs* AddGuest(const std::string& name, int vcpus, GuestConfig guest_config = {});

  // RT-Xen / vanilla-EDF: configure a VCPU's host-level server interface.
  void SetVcpuServer(Vcpu* vcpu, ServerParams params);

  // Scheduler access (null unless the matching framework is active).
  DpWrapScheduler* dpwrap() const { return dpwrap_; }
  ServerEdfScheduler* server_edf() const { return server_edf_; }
  CreditScheduler* credit() const { return credit_; }

  // Starts the machine (idempotent) and runs the simulation to `until`.
  void Run(TimeNs until);

  const std::vector<std::unique_ptr<GuestOs>>& guests() const { return guests_; }
  // The guest OS driving `vm`, or null for a VM not created via AddGuest.
  GuestOs* GuestOf(const Vm* vm) const;

  // Kills `guest`'s VM through the machine-level fault path and resets the
  // guest kernel, exactly as an injected VM crash does. Used by the cluster
  // federation to tear a VM down on its source host before re-placing it
  // (host failure evacuation / live rebalance move); safe without a fault
  // injector, and a no-op on an already-crashed VM.
  void CrashGuest(GuestOs* guest);

  bool started() const { return started_; }

  // Fault injection: null unless config.faults is active (armed on Run()).
  FaultInjector* fault_injector() const { return injector_.get(); }
  // Invariant auditor: null unless config.audit.enabled (armed on Run()).
  InvariantAuditor* auditor() const { return auditor_.get(); }
  // SLO controller: null unless config.control.enabled (armed on Run()).
  SloController* controller() const { return controller_.get(); }
  // The cross-layer channel of `guest` (null unless framework is RTVirt).
  RtvirtGuestChannel* ChannelOf(const GuestOs* guest) const;
  // Aggregates injector, per-guest channel, host watchdog/capacity, and
  // auditor counters.
  ResilienceCounters resilience() const;

  // ---- Checkpoint / restore (src/checkpoint, DESIGN.md §10) ----
  // Registers an externally owned component (workload driver, monitor) whose
  // state belongs in checkpoints of this experiment. Built-in components
  // (machine, scheduler, injector, guests, channels) are pre-registered.
  // Call before the first SaveCheckpoint/RestoreCheckpoint, in the same order
  // on the saving and the restoring build. A null component, a section name
  // already taken, or a component already registered (its events would
  // belong to two sections) is a fatal error in every build type.
  void RegisterCheckpointable(const std::string& section, ckpt::Checkpointable* component);

  // Serializes the full simulation state (clock, live events, RNG, every
  // registered component) into `out`. Returns "" on success, else
  // an error naming the unsupported config or unregistered event. Requires a
  // started experiment on the default path: audit, control, report_alloc and
  // non-RTVirt frameworks are rejected (their components are not yet
  // checkpointable).
  std::string SaveCheckpoint(ckpt::Image* out) const;

  // Restores `image` onto this freshly built (never Run) experiment, which
  // must have been constructed by the same builder code as the saver. On
  // success the experiment behaves as if it had simulated to the checkpoint
  // instant: the next Run(until) continues byte-identically. Never partially
  // applies silently: any error is returned naming the offending section.
  std::string RestoreCheckpoint(const ckpt::Image& image);
  // The standard end-of-run report: resilience counters (including the PCPU
  // fault/recovery and audit sections when those fired) under a title line.
  void PrintReport(std::ostream& out, const std::string& title) const;

 private:
  ExperimentConfig config_;
  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  DpWrapScheduler* dpwrap_ = nullptr;
  ServerEdfScheduler* server_edf_ = nullptr;
  CreditScheduler* credit_ = nullptr;
  std::vector<std::unique_ptr<GuestOs>> guests_;
  std::vector<RtvirtGuestChannel*> channels_;  // Parallel to guests_ (may hold nulls).
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::unique_ptr<SloController> controller_;
  Rng rng_;
  bool started_ = false;
  // Checkpoint registry, in serialization order. A live event is saved under
  // owner Fnv1a64(name) of the component it targets, and restore hands it
  // back to that component.
  std::vector<std::pair<std::string, ckpt::Checkpointable*>> checkpointables_;
  // Allocation attribution: everything up to the end of the first Run() call
  // (construction, guest/workload setup, machine start) is warm-up; the rest
  // is steady state. Snapshots of the global alloc_hooks counters.
  perf::AllocSnapshot ctor_alloc_;
  perf::AllocSnapshot warmup_end_alloc_;
  bool warmup_recorded_ = false;
};

}  // namespace rtvirt

#endif  // SRC_RUNNER_EXPERIMENT_H_
