// Cross-host VM placement (paper section 6): extends RTVirt's admission to
// a cluster. Each host runs its own DP-WRAP scheduler, so a host can accept
// any set of VMs whose total RTA bandwidth fits its processor count; the
// placer chooses hosts for arriving VMs and, when fragmentation blocks an
// arrival that would fit in aggregate, plans a minimal set of live
// migrations (costed with MigrationCostModel) to make room.
//
// The federation layer (src/cluster/federation.h) adds host-level fault
// tolerance on top: hosts can be marked unavailable (crashed / dark) or
// capacity-degraded, and evacuated VMs may be re-placed in "degraded fit"
// mode, where feasibility is tested against the compressed floors of the
// mixed-criticality reservations (the PR 2 compress/shed ladder squeezes the
// incumbents physically) instead of their full bandwidths.

#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/cluster/migration_model.h"
#include "src/common/bandwidth.h"

namespace rtvirt {

enum class PlacementPolicy {
  kFirstFit,  // Lowest host id with room (consolidating).
  kWorstFit,  // Most free bandwidth (load balancing).
  kBestFit,   // Least free bandwidth that still fits (packing).
};

struct ClusterHost {
  int id = 0;
  int pcpus = 0;

  Bandwidth capacity() const { return Bandwidth::Cpus(pcpus); }
};

struct VmPlacementRequest {
  std::string name;
  Bandwidth bandwidth;            // Aggregate RTA reservation of the VM.
  // Compressed floor of that reservation: what the VM's elastic LOW tasks
  // shrink to at min_slice under host pressure. Degraded-fit placement tests
  // feasibility against floors. The -1 ppb sentinel means "inelastic"
  // (floor == bandwidth), so existing call sites are unchanged.
  Bandwidth min_bandwidth = Bandwidth::FromPpb(-1);
  MigrationCostModel migration;   // Cost of moving this VM once placed.

  Bandwidth MinBandwidth() const {
    return min_bandwidth.ppb() < 0 ? bandwidth : min_bandwidth;
  }
};

struct PlacedVm {
  VmPlacementRequest request;
  int host = -1;
};

struct MigrationStep {
  std::string vm;
  int from = 0;
  int to = 0;
  MigrationCostModel::Estimate cost;
};

class ClusterPlacer {
 public:
  explicit ClusterPlacer(std::vector<ClusterHost> hosts,
                         PlacementPolicy policy = PlacementPolicy::kWorstFit);

  // Places a VM; returns the chosen host id or nullopt if no host has room
  // (use PlanRebalance to try migrations). A zero-bandwidth request is
  // valid: it lands on the policy's pick among available hosts with
  // non-negative free capacity and consumes nothing. With degraded_fit set,
  // feasibility and policy scoring use compressed floors (MinBandwidth) on
  // both sides — the surviving hosts' overload ladders are trusted to
  // squeeze the incumbents down to their floors.
  std::optional<int> Place(const VmPlacementRequest& request, bool degraded_fit = false);

  // Removes a VM (it left the system). Removing a name that was never
  // placed — or was already removed — is a defined no-op returning false.
  bool Remove(const std::string& name);

  // When Place fails but the aggregate free capacity would fit the request,
  // plans a greedy minimal-disruption migration sequence that frees room on
  // one host: candidate VMs are considered in increasing predicted
  // total-migration-time order. Returns the steps and the target host, or
  // nullopt if no plan exists. The plan is applied to the placer's state.
  // Honors degraded_fit the same way Place does (floors on both sides).
  struct RebalancePlan {
    int target_host = -1;
    std::vector<MigrationStep> steps;
    TimeNs total_migration_time = 0;
  };
  std::optional<RebalancePlan> PlanRebalance(const VmPlacementRequest& request,
                                             bool degraded_fit = false);

  // Host fault state, driven by the federation. An unavailable host is
  // skipped by Place/PlanRebalance (as target and as migration destination);
  // any placements still booked on it are the caller's to Remove (the
  // federation evacuates them one by one). A capacity factor in (0, 1]
  // scales the host's effective capacity for all feasibility tests,
  // mirroring Machine::SetPcpuSpeed one level up.
  void SetHostAvailable(int host, bool available);
  void SetHostCapacityFactor(int host, double factor);
  bool HostAvailable(int host) const;

  Bandwidth HostLoad(int host) const;     // Sum of full bandwidths booked.
  Bandwidth HostMinLoad(int host) const;  // Sum of compressed floors booked.
  // Effective capacity minus full load; negative when a degraded-fit
  // placement overbooked the host (the ladder keeps it physically feasible).
  Bandwidth HostFree(int host) const;
  const std::vector<PlacedVm>& placements() const { return vms_; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

 private:
  Bandwidth EffectiveCapacity(int host) const;
  Bandwidth LoadFor(int host, bool degraded_fit) const;
  int ChooseHost(const VmPlacementRequest& request, bool degraded_fit) const;
  void CheckHostId(int host, const char* who) const;

  std::vector<ClusterHost> hosts_;
  PlacementPolicy policy_;
  std::vector<PlacedVm> vms_;
  std::vector<bool> available_;
  std::vector<double> capacity_factor_;
};

}  // namespace rtvirt

#endif  // SRC_CLUSTER_PLACEMENT_H_
