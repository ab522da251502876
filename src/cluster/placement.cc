#include "src/cluster/placement.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/check.h"

namespace rtvirt {

ClusterPlacer::ClusterPlacer(std::vector<ClusterHost> hosts, PlacementPolicy policy)
    : hosts_(std::move(hosts)), policy_(policy) {
  for (size_t i = 0; i < hosts_.size(); ++i) {
    assert(hosts_[i].id == static_cast<int>(i) && "host ids must be dense and ordered");
  }
  available_.assign(hosts_.size(), true);
  capacity_factor_.assign(hosts_.size(), 1.0);
}

void ClusterPlacer::CheckHostId(int host, const char* who) const {
  RTVIRT_CHECK(host >= 0 && host < static_cast<int>(hosts_.size()),
               "%s: host id %d out of range (cluster has %zu hosts)", who, host,
               hosts_.size());
}

Bandwidth ClusterPlacer::EffectiveCapacity(int host) const {
  double factor = capacity_factor_[host];
  if (factor == 1.0) {
    return hosts_[host].capacity();
  }
  return Bandwidth::FromPpb(
      static_cast<int64_t>(static_cast<double>(hosts_[host].capacity().ppb()) * factor + 0.5));
}

Bandwidth ClusterPlacer::HostLoad(int host) const {
  CheckHostId(host, "HostLoad");
  Bandwidth load;
  for (const PlacedVm& vm : vms_) {
    if (vm.host == host) {
      load += vm.request.bandwidth;
    }
  }
  return load;
}

Bandwidth ClusterPlacer::HostMinLoad(int host) const {
  CheckHostId(host, "HostMinLoad");
  Bandwidth load;
  for (const PlacedVm& vm : vms_) {
    if (vm.host == host) {
      load += vm.request.MinBandwidth();
    }
  }
  return load;
}

Bandwidth ClusterPlacer::HostFree(int host) const {
  CheckHostId(host, "HostFree");
  return EffectiveCapacity(host) - HostLoad(host);
}

Bandwidth ClusterPlacer::LoadFor(int host, bool degraded_fit) const {
  return degraded_fit ? HostMinLoad(host) : HostLoad(host);
}

void ClusterPlacer::SetHostAvailable(int host, bool available) {
  CheckHostId(host, "SetHostAvailable");
  available_[host] = available;
}

void ClusterPlacer::SetHostCapacityFactor(int host, double factor) {
  CheckHostId(host, "SetHostCapacityFactor");
  RTVIRT_CHECK(factor > 0.0 && factor <= 1.0,
               "SetHostCapacityFactor: host %d factor outside (0, 1]", host);
  capacity_factor_[host] = factor;
}

bool ClusterPlacer::HostAvailable(int host) const {
  CheckHostId(host, "HostAvailable");
  return available_[host];
}

int ClusterPlacer::ChooseHost(const VmPlacementRequest& request, bool degraded_fit) const {
  Bandwidth bw = degraded_fit ? request.MinBandwidth() : request.bandwidth;
  int best = -1;
  Bandwidth best_free;
  for (const ClusterHost& h : hosts_) {
    if (!available_[h.id]) {
      continue;
    }
    Bandwidth free = EffectiveCapacity(h.id) - LoadFor(h.id, degraded_fit);
    if (free < bw) {
      continue;
    }
    switch (policy_) {
      case PlacementPolicy::kFirstFit:
        return h.id;
      case PlacementPolicy::kWorstFit:
        if (best < 0 || free > best_free) {
          best = h.id;
          best_free = free;
        }
        break;
      case PlacementPolicy::kBestFit:
        if (best < 0 || free < best_free) {
          best = h.id;
          best_free = free;
        }
        break;
    }
  }
  return best;
}

std::optional<int> ClusterPlacer::Place(const VmPlacementRequest& request, bool degraded_fit) {
  int host = ChooseHost(request, degraded_fit);
  if (host < 0) {
    return std::nullopt;
  }
  vms_.push_back(PlacedVm{request, host});
  return host;
}

bool ClusterPlacer::Remove(const std::string& name) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [&](const PlacedVm& vm) { return vm.request.name == name; });
  if (it == vms_.end()) {
    return false;
  }
  vms_.erase(it);
  return true;
}

std::optional<ClusterPlacer::RebalancePlan> ClusterPlacer::PlanRebalance(
    const VmPlacementRequest& request, bool degraded_fit) {
  Bandwidth req_bw = degraded_fit ? request.MinBandwidth() : request.bandwidth;
  Bandwidth total_free;
  for (const ClusterHost& h : hosts_) {
    if (available_[h.id]) {
      total_free += EffectiveCapacity(h.id) - LoadFor(h.id, degraded_fit);
    }
  }
  if (total_free < req_bw) {
    return std::nullopt;  // Not a fragmentation problem: genuinely full.
  }
  // Try to free room on each candidate target host, cheapest-first: move its
  // cheapest-to-migrate VMs to other hosts until the request fits.
  struct Candidate {
    size_t vm_index;
    TimeNs cost;
  };
  auto vm_bw = [&](const PlacedVm& vm) {
    return degraded_fit ? vm.request.MinBandwidth() : vm.request.bandwidth;
  };
  std::optional<RebalancePlan> best;
  for (const ClusterHost& target : hosts_) {
    if (!available_[target.id]) {
      continue;
    }
    Bandwidth need = req_bw - (EffectiveCapacity(target.id) - LoadFor(target.id, degraded_fit));
    if (need <= Bandwidth::Zero()) {
      continue;  // Would have been placed directly.
    }
    // Candidates on this host, cheapest migration first.
    std::vector<Candidate> candidates;
    for (size_t i = 0; i < vms_.size(); ++i) {
      if (vms_[i].host == target.id) {
        candidates.push_back(Candidate{i, vms_[i].request.migration.Predict().total_time});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });

    // Tentatively move candidates to other hosts (first-fit among the rest).
    RebalancePlan plan;
    plan.target_host = target.id;
    std::vector<std::pair<size_t, int>> moves;  // (vm index, new host)
    std::vector<Bandwidth> free(hosts_.size());
    for (const ClusterHost& h : hosts_) {
      free[h.id] = EffectiveCapacity(h.id) - LoadFor(h.id, degraded_fit);
    }
    Bandwidth freed;
    for (const Candidate& c : candidates) {
      if (freed >= need) {
        break;
      }
      const PlacedVm& vm = vms_[c.vm_index];
      int dest = -1;
      for (const ClusterHost& h : hosts_) {
        if (h.id != target.id && available_[h.id] && free[h.id] >= vm_bw(vm)) {
          dest = h.id;
          break;
        }
      }
      if (dest < 0) {
        continue;  // This VM cannot move anywhere; try the next candidate.
      }
      free[dest] -= vm_bw(vm);
      freed += vm_bw(vm);
      MigrationStep step;
      step.vm = vm.request.name;
      step.from = target.id;
      step.to = dest;
      step.cost = vm.request.migration.Predict();
      plan.total_migration_time += step.cost.total_time;
      plan.steps.push_back(step);
      moves.emplace_back(c.vm_index, dest);
    }
    if (freed < need) {
      continue;  // Could not free enough on this target.
    }
    if (!best.has_value() || plan.total_migration_time < best->total_migration_time) {
      best = plan;
      // Remember the moves of the best plan by re-deriving them at apply
      // time below (indices are stable: we have not mutated vms_ yet).
    }
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  // Apply the winning plan.
  for (const MigrationStep& step : best->steps) {
    for (PlacedVm& vm : vms_) {
      if (vm.request.name == step.vm) {
        vm.host = step.to;
        break;
      }
    }
  }
  vms_.push_back(PlacedVm{request, best->target_host});
  return best;
}

}  // namespace rtvirt
