// Multi-host federation with host-level fault tolerance.
//
// Promotes the cluster layer (paper section 6) from a placement stub to a
// federated simulation: N hosts, each a full single-host Experiment (one
// Machine + DP-WRAP instance + guests), under a global admission/placement
// service that packs CARTS interfaces with the ClusterPlacer policies. The
// structure mirrors a static partition-management table (one configuration
// record per guest, owned by the manager, never by the guests): the
// federation holds the authoritative ClusterVmSpec per VM and re-instantiates
// guests from it after every move.
//
// Host-level fault events come from FaultPlan::host_faults (crash / outage
// window / capacity degradation) and are driven through the same machine
// knobs the PCPU fault model uses — SetPcpuOnline / SetPcpuSpeed on every
// core of the affected host — so the frozen baseline and the hardened path
// see the identical hardware timeline. With fault_tolerance enabled the
// federation additionally runs the recovery response:
//
//   * evacuation — every VM on a failed host is torn down (the machine-level
//     crash path, same as an injected VM crash) and queued for re-placement;
//   * re-placement — Place, then PlanRebalance (live-migrating incumbents to
//     make room, charged their predicted downtime as a blackout);
//   * retry with bounded exponential backoff when the cluster is full, and a
//     deadline-aware timeout after which the evacuee is re-placed in
//     degraded fit: feasibility against the compressed floors of the mixed-
//     criticality reservations, trusting the PR 2 compress/shed ladder on
//     the surviving host to squeeze the incumbents physically (graceful
//     degradation instead of drop);
//   * migration abort — an in-flight copy whose target host fails is
//     re-routed and the copy restarted;
//   * blackout accounting — every move charges the MigrationCostModel
//     copy/warm-up penalty as a reservation-unavailability window (full
//     total_time for a cold restore off a failed host, downtime only for a
//     live rebalance move).
//
// Determinism: hosts interact only through federation actions, so the N
// simulators advance in lock-step to the next federation event time and
// stay independent in between. Same seed + plan => byte-identical report
// (asserted by tests/federation_test.cc and the bench soak mode).

#ifndef SRC_CLUSTER_FEDERATION_H_
#define SRC_CLUSTER_FEDERATION_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/cluster/placement.h"
#include "src/metrics/resilience.h"
#include "src/runner/experiment.h"

namespace rtvirt {

// The federation's authoritative per-VM record: everything needed to
// instantiate (and re-instantiate, after a migration) the guest anywhere.
struct ClusterVmSpec {
  std::string name;
  int vcpus = 1;
  Bandwidth bandwidth;      // Full CARTS interface of the VM.
  // Compressed floor under the guest's overload ladder; -1 ppb = inelastic.
  Bandwidth min_bandwidth = Bandwidth::FromPpb(-1);
  GuestConfig guest;
  MigrationCostModel migration;
};

enum class HostState {
  kHealthy,
  kDegraded,  // Throttled capacity; still serving.
  kDown,      // Transient outage; will heal.
  kCrashed,   // Permanent; never heals.
};

struct FederationConfig {
  int num_hosts = 2;
  int pcpus_per_host = 4;
  PlacementPolicy policy = PlacementPolicy::kWorstFit;

  // Host-failure recovery. Disabled by default: host faults then still hit
  // the machines (frozen baseline), but nobody evacuates or re-places.
  struct FaultTolerance {
    // An evacuee the cluster currently has no room for is retried with
    // bounded exponential backoff (kEvacuationBackoff*, Federation::TryPlace).
    bool enabled = false;
    // Attempt budget per evacuation; exhausting it marks the evacuation
    // unresolved (counted, reported) instead of retrying forever.
    int max_attempts = 16;
    // How long an evacuee may chase a full-bandwidth home before the
    // federation falls back to degraded fit (compress/shed floors).
    TimeNs migration_deadline = Sec(1);
  };
  FaultTolerance fault_tolerance;
};

class Federation {
 public:
  // Workload hook, called every time a VM instance comes up: at admission
  // and again after every migration landing (generation increments per
  // landing). The callback re-creates the VM's tasks/RTAs on the new host.
  using Launcher = std::function<void(Experiment& exp, GuestOs* guest,
                                      const ClusterVmSpec& spec, int host, int generation)>;
  // Called just before a VM instance is torn down (evacuation or rebalance
  // move), while its guest still exists on `host`.
  using Teardown = std::function<void(const ClusterVmSpec& spec, int host)>;

  // `host_template` seeds every per-host Experiment: machine.num_pcpus is
  // overridden with pcpus_per_host, the seed is decorrelated per host, and
  // faults.host_faults is stripped from the per-host plans (those events are
  // the federation's to drive; everything else in the plan — hypercall
  // faults, PCPU faults, ... — replays identically on every host).
  Federation(FederationConfig config, ExperimentConfig host_template);
  ~Federation();
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  void SetLauncher(Launcher launcher) { launcher_ = std::move(launcher); }
  void SetTeardown(Teardown teardown) { teardown_ = std::move(teardown); }

  // Global admission: places the VM (Place, then PlanRebalance) and creates
  // its guest on the chosen host. Returns the host id, or nullopt when the
  // cluster rejects the interface. VM names must be unique.
  std::optional<int> AdmitVm(const ClusterVmSpec& spec);

  // Advances every host in lock-step to `until`, firing host fault events
  // and the evacuation/migration machinery at their planned instants.
  void Run(TimeNs until);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Experiment& host(int i) { return *hosts_[i].exp; }
  HostState host_state(int i) const { return hosts_[i].state; }
  TimeNs now() const { return now_; }
  const ClusterPlacer& placer() const { return placer_; }

  // Where a VM currently runs: host id, or -1 while dark (evacuating,
  // in-flight, or lost). Name must have been admitted.
  struct VmStatus {
    int host = -1;
    int generation = 0;
    bool degraded = false;  // Last landing used degraded fit.
    bool lost = false;      // Evacuation exhausted its attempt budget.
    bool pending = false;   // Queued or in-flight right now.
  };
  VmStatus vm_status(const std::string& name) const;

  // Aggregated counters: the sum of every host's ResilienceCounters plus
  // the federation's own cluster section.
  ResilienceCounters resilience() const;
  void PrintReport(std::ostream& out, const std::string& title) const;

  // ---- Checkpoint / restore (DESIGN.md §10) ----
  // Snapshots the whole federation at the lock-step barrier: one nested
  // per-host image ("host.<i>") per Experiment plus a "federation" section
  // (clock, host states, VM table, fault cursor, cluster counters). Only
  // callable between Run() calls (every host at now_), with no in-flight
  // migrations and no VM that has ever landed a move — those change the
  // per-host guest census, which a rebuilt federation cannot reproduce.
  // Returns "" on success, else a loud error naming the blocker.
  std::string SaveCheckpoint(ckpt::Image* out) const;

  // Restores onto a freshly built federation (same config, same AdmitVm
  // sequence, never Run). Re-applies host availability/capacity to the
  // placer from the restored host states. An error found once the restore
  // began to overwrite state (the federation section, or any host's restore)
  // leaves the federation unusable, as Experiment::RestoreCheckpoint does:
  // Run fails an RTVIRT_CHECK, and SaveCheckpoint and RestoreCheckpoint
  // return that same error.
  std::string RestoreCheckpoint(const ckpt::Image& image);

 private:
  struct Host {
    std::unique_ptr<Experiment> exp;
    HostState state = HostState::kHealthy;
    // Last applied capacity factor (kThrottle edge); checkpointed so a
    // restore can re-seed the placer's capacity bookkeeping.
    double factor = 1.0;
  };

  struct ClusterVm {
    ClusterVmSpec spec;
    int host = -1;            // -1 while dark.
    GuestOs* guest = nullptr; // Current instance (null while dark).
    int generation = 0;
    bool degraded = false;
    bool lost = false;
  };

  // One expanded host fault edge (an Outage contributes kDown + kUp, a
  // Degrade kThrottle + optional kHeal).
  struct HostEvent {
    enum class Kind { kCrash, kDown, kUp, kThrottle, kHeal };
    TimeNs at = 0;
    Kind kind = Kind::kCrash;
    int host = 0;
    double factor = 1.0;
  };

  // An evacuation or rebalance move in progress. target < 0: still hunting
  // for a home (due = next placement attempt); target >= 0: copy in flight
  // (due = arrival time).
  struct PendingMigration {
    size_t vm = 0;
    TimeNs due = 0;
    TimeNs started = 0;  // When the VM went dark.
    int attempts = 0;
    int target = -1;
    bool degraded = false;
    uint64_t seq = 0;
  };

  static std::vector<ClusterHost> MakeHosts(const FederationConfig& config);
  // RestoreCheckpoint past its up-front checks: reads the federation section
  // in place, then restores every host.
  std::string ApplyImage(const ckpt::Image& image, const ckpt::Section& fed);
  // The checkpoint section's leading clocks, in byte order; SaveCheckpoint
  // and RestoreCheckpoint both run this one list.
  template <typename Self, typename Io>
  static void ClockFields(Self& self, Io& io);
  size_t IndexOf(const std::string& name) const;
  PendingMigration* PendingFor(size_t vm_index);
  VmPlacementRequest RequestFor(const ClusterVmSpec& spec) const;
  TimeNs NextWakeup() const;
  void ProcessDue();
  void ApplyHostEvent(const HostEvent& e);
  void SetHostOnline(int host, bool online);
  void SetHostSpeed(int host, double factor);
  // Tears down the landed instance of vms_[i] (teardown hook, machine-level
  // crash, guest reset); the placer booking is the caller's business.
  void TakeDown(size_t i);
  // Re-routes in-flight copies whose target just failed.
  void AbortInFlightTo(int host);
  void MoveVm(const MigrationStep& step);
  // One step of pendings_[idx]: land an arrived copy, or hunt for a home
  // (place / rebalance / degrade after deadline / backoff / give up).
  void StepPending(size_t idx);
  void Land(size_t idx);
  void TryPlace(size_t idx);

  FederationConfig config_;
  ClusterPlacer placer_;
  std::vector<Host> hosts_;
  std::vector<ClusterVm> vms_;
  std::vector<HostEvent> events_;  // Time-ordered; cursor_ is the next to fire.
  size_t cursor_ = 0;
  std::vector<PendingMigration> pendings_;
  uint64_t seq_ = 0;
  TimeNs now_ = 0;
  Launcher launcher_;
  Teardown teardown_;
  // The federation's own slice of ResilienceCounters.
  ClusterStats counters_;
  // Non-empty once a restore failed part-way (see RestoreCheckpoint).
  std::string restore_error_;
};

}  // namespace rtvirt

#endif  // SRC_CLUSTER_FEDERATION_H_
