#include "src/cluster/federation.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/metrics/report.h"

namespace rtvirt {

std::vector<ClusterHost> Federation::MakeHosts(const FederationConfig& config) {
  RTVIRT_CHECK(config.num_hosts > 0, "federation needs at least one host (got %d)",
               config.num_hosts);
  RTVIRT_CHECK(config.pcpus_per_host > 0, "hosts need at least one pcpu (got %d)",
               config.pcpus_per_host);
  std::vector<ClusterHost> hosts;
  hosts.reserve(static_cast<size_t>(config.num_hosts));
  for (int i = 0; i < config.num_hosts; ++i) {
    hosts.push_back(ClusterHost{i, config.pcpus_per_host});
  }
  return hosts;
}

Federation::Federation(FederationConfig config, ExperimentConfig host_template)
    : config_(std::move(config)), placer_(MakeHosts(config_), config_.policy) {
  std::string err =
      host_template.faults.Validate(config_.pcpus_per_host, -1, config_.num_hosts);
  RTVIRT_CHECK(err.empty(), "invalid federation FaultPlan: %s", err.c_str());
  std::vector<FaultPlan::HostFault> host_faults = host_template.faults.host_faults;
  host_template.faults.host_faults.clear();
  host_template.machine.num_pcpus = config_.pcpus_per_host;
  uint64_t base_seed = host_template.seed;
  for (int i = 0; i < config_.num_hosts; ++i) {
    ExperimentConfig cfg = host_template;
    // Decorrelate the per-host seeds (workload + fault RNG streams) while
    // keeping the whole cluster a pure function of the template seed.
    cfg.seed = base_seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i);
    cfg.faults.seed = cfg.seed ^ 0xC2B2AE3D27D4EB4Full;
    hosts_.push_back(Host{std::make_unique<Experiment>(std::move(cfg)), HostState::kHealthy});
  }
  // Expand the host fault plan into time-ordered state-change edges.
  for (const FaultPlan::HostFault& f : host_faults) {
    switch (f.kind) {
      case FaultPlan::HostFault::Kind::kCrash:
        events_.push_back(HostEvent{f.at, HostEvent::Kind::kCrash, f.host, 1.0});
        break;
      case FaultPlan::HostFault::Kind::kOutage:
        events_.push_back(HostEvent{f.at, HostEvent::Kind::kDown, f.host, 1.0});
        events_.push_back(HostEvent{f.until, HostEvent::Kind::kUp, f.host, 1.0});
        break;
      case FaultPlan::HostFault::Kind::kDegrade:
        events_.push_back(HostEvent{f.at, HostEvent::Kind::kThrottle, f.host, f.factor});
        if (f.until < kTimeNever) {
          events_.push_back(HostEvent{f.until, HostEvent::Kind::kHeal, f.host, 1.0});
        }
        break;
    }
  }
  // Stable: simultaneous edges fire in plan order, deterministically.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const HostEvent& a, const HostEvent& b) { return a.at < b.at; });
}

Federation::~Federation() = default;

size_t Federation::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < vms_.size(); ++i) {
    if (vms_[i].spec.name == name) {
      return i;
    }
  }
  RTVIRT_CHECK(false, "federation knows no VM named '%s'", name.c_str());
  return vms_.size();
}

Federation::PendingMigration* Federation::PendingFor(size_t vm_index) {
  for (PendingMigration& pm : pendings_) {
    if (pm.vm == vm_index) {
      return &pm;
    }
  }
  return nullptr;
}

VmPlacementRequest Federation::RequestFor(const ClusterVmSpec& spec) const {
  VmPlacementRequest req;
  req.name = spec.name;
  req.bandwidth = spec.bandwidth;
  req.min_bandwidth = spec.min_bandwidth;
  req.migration = spec.migration;
  return req;
}

std::optional<int> Federation::AdmitVm(const ClusterVmSpec& spec) {
  for (const ClusterVm& vm : vms_) {
    RTVIRT_CHECK(vm.spec.name != spec.name, "duplicate federation VM name '%s'",
                 spec.name.c_str());
  }
  RTVIRT_CHECK(spec.min_bandwidth.ppb() < 0 || (spec.min_bandwidth > Bandwidth::Zero() &&
                                                spec.min_bandwidth <= spec.bandwidth),
               "VM '%s': min_bandwidth must be in (0, bandwidth]", spec.name.c_str());
  VmPlacementRequest req = RequestFor(spec);
  std::optional<int> host = placer_.Place(req);
  if (!host.has_value()) {
    if (auto plan = placer_.PlanRebalance(req); plan.has_value()) {
      ++counters_.migration_rebalances;
      for (const MigrationStep& step : plan->steps) {
        MoveVm(step);
      }
      host = plan->target_host;
    }
  }
  if (!host.has_value()) {
    ++counters_.cluster_vms_rejected;
    return std::nullopt;
  }
  ++counters_.cluster_vms_admitted;
  vms_.push_back(ClusterVm{spec});
  size_t idx = vms_.size() - 1;
  vms_[idx].host = *host;
  vms_[idx].guest = hosts_[*host].exp->AddGuest(spec.name, spec.vcpus, spec.guest);
  if (launcher_) {
    launcher_(*hosts_[*host].exp, vms_[idx].guest, vms_[idx].spec, *host, 0);
  }
  return host;
}

TimeNs Federation::NextWakeup() const {
  TimeNs next = kTimeNever;
  if (cursor_ < events_.size()) {
    next = std::min(next, events_[cursor_].at);
  }
  for (const PendingMigration& pm : pendings_) {
    next = std::min(next, pm.due);
  }
  return next;
}

void Federation::Run(TimeNs until) {
  RTVIRT_CHECK(restore_error_.empty(), "Run after a failed restore: %s",
               restore_error_.c_str());
  RTVIRT_CHECK(until >= now_, "federation time cannot go backwards");
  while (true) {
    TimeNs next = std::min(until, NextWakeup());
    // Lock-step advance: hosts interact only through federation actions, so
    // between federation events the N simulators are independent.
    for (Host& h : hosts_) {
      h.exp->Run(next);
    }
    now_ = next;
    ProcessDue();
    if (now_ >= until) {
      break;
    }
  }
}

void Federation::ProcessDue() {
  bool progress = true;
  while (progress) {
    progress = false;
    while (cursor_ < events_.size() && events_[cursor_].at <= now_) {
      ApplyHostEvent(events_[cursor_]);
      ++cursor_;
      progress = true;
    }
    // Due pendings fire in (due, seq) order, one at a time: a step may
    // mutate the queue (retry reschedules itself, a rebalance adds moves).
    size_t best = pendings_.size();
    for (size_t i = 0; i < pendings_.size(); ++i) {
      const PendingMigration& pm = pendings_[i];
      if (pm.due > now_) {
        continue;
      }
      if (best == pendings_.size() || pm.due < pendings_[best].due ||
          (pm.due == pendings_[best].due && pm.seq < pendings_[best].seq)) {
        best = i;
      }
    }
    if (best < pendings_.size()) {
      StepPending(best);
      progress = true;
    }
  }
}

void Federation::SetHostOnline(int host, bool online) {
  Machine& m = hosts_[host].exp->machine();
  for (int p = 0; p < m.num_pcpus(); ++p) {
    m.SetPcpuOnline(p, online);
  }
}

void Federation::SetHostSpeed(int host, double factor) {
  Machine& m = hosts_[host].exp->machine();
  for (int p = 0; p < m.num_pcpus(); ++p) {
    m.SetPcpuSpeed(p, factor);
  }
}

void Federation::TakeDown(size_t i) {
  ClusterVm& vm = vms_[i];
  if (teardown_) {
    teardown_(vm.spec, vm.host);
  }
  hosts_[vm.host].exp->CrashGuest(vm.guest);
  vm.guest = nullptr;
  vm.host = -1;
}

void Federation::AbortInFlightTo(int host) {
  for (PendingMigration& pm : pendings_) {
    if (pm.target != host) {
      continue;
    }
    // The copy raced the target's failure: drop the booking, restart the
    // hunt immediately (the backoff clock restarts with the new attempt).
    placer_.Remove(vms_[pm.vm].spec.name);
    pm.target = -1;
    pm.due = now_;
    ++counters_.migration_aborts;
  }
}

void Federation::ApplyHostEvent(const HostEvent& e) {
  const bool ft = config_.fault_tolerance.enabled;
  Host& h = hosts_[e.host];
  switch (e.kind) {
    case HostEvent::Kind::kCrash:
    case HostEvent::Kind::kDown: {
      bool crash = e.kind == HostEvent::Kind::kCrash;
      h.state = crash ? HostState::kCrashed : HostState::kDown;
      if (crash) {
        ++counters_.host_crashes;
      } else {
        ++counters_.host_outages;
      }
      SetHostOnline(e.host, false);
      if (!ft) {
        break;  // Frozen: the hardware fails, nobody responds.
      }
      placer_.SetHostAvailable(e.host, false);
      AbortInFlightTo(e.host);
      for (size_t i = 0; i < vms_.size(); ++i) {
        if (vms_[i].host != e.host) {
          continue;
        }
        TakeDown(i);
        placer_.Remove(vms_[i].spec.name);
        ++counters_.evacuations;
        pendings_.push_back(PendingMigration{i, now_, now_, 0, -1, false, seq_++});
      }
      break;
    }
    case HostEvent::Kind::kUp:
      h.state = HostState::kHealthy;
      ++counters_.host_heals;
      SetHostOnline(e.host, true);
      if (ft) {
        placer_.SetHostAvailable(e.host, true);
      }
      break;
    case HostEvent::Kind::kThrottle:
      h.state = HostState::kDegraded;
      h.factor = e.factor;
      ++counters_.host_degrades;
      SetHostSpeed(e.host, e.factor);
      if (ft) {
        placer_.SetHostCapacityFactor(e.host, e.factor);
      }
      break;
    case HostEvent::Kind::kHeal:
      h.state = HostState::kHealthy;
      h.factor = 1.0;
      ++counters_.host_heals;
      SetHostSpeed(e.host, 1.0);
      if (ft) {
        placer_.SetHostCapacityFactor(e.host, 1.0);
      }
      break;
  }
}

void Federation::MoveVm(const MigrationStep& step) {
  size_t i = IndexOf(step.vm);
  ClusterVm& vm = vms_[i];
  ++counters_.rebalance_moves;
  if (PendingMigration* pm = PendingFor(i)) {
    // The rebalancer relocated a booking whose copy is still in flight:
    // redirect the copy; the blackout already being paid keeps running.
    pm->target = step.to;
    return;
  }
  // Live move of a landed VM: blackout is the predicted stop-and-copy
  // downtime only (pre-copy rounds overlap with execution).
  TakeDown(i);
  TimeNs blackout = std::max<TimeNs>(step.cost.downtime, 1);
  pendings_.push_back(
      PendingMigration{i, now_ + blackout, now_, 0, step.to, vm.degraded, seq_++});
}

void Federation::StepPending(size_t idx) {
  if (pendings_[idx].target >= 0) {
    Land(idx);
  } else {
    TryPlace(idx);
  }
}

void Federation::Land(size_t idx) {
  PendingMigration pm = pendings_[idx];
  pendings_.erase(pendings_.begin() + static_cast<ptrdiff_t>(idx));
  ClusterVm& vm = vms_[pm.vm];
  vm.host = pm.target;
  ++vm.generation;
  vm.degraded = pm.degraded;
  vm.guest = hosts_[vm.host].exp->AddGuest(vm.spec.name, vm.spec.vcpus, vm.spec.guest);
  ++counters_.migration_successes;
  if (pm.degraded) {
    ++counters_.degraded_placements;
  }
  counters_.vm_unavailable_ns += now_ - pm.started;
  if (launcher_) {
    launcher_(*hosts_[vm.host].exp, vm.guest, vm.spec, vm.host, vm.generation);
  }
}

void Federation::TryPlace(size_t idx) {
  PendingMigration& pm = pendings_[idx];
  ClusterVm& vm = vms_[pm.vm];
  const FederationConfig::FaultTolerance& ft = config_.fault_tolerance;
  if (!pm.degraded && now_ - pm.started >= ft.migration_deadline) {
    pm.degraded = true;
  }
  ++counters_.migration_attempts;
  VmPlacementRequest req = RequestFor(vm.spec);
  std::optional<int> host = placer_.Place(req, pm.degraded);
  if (!host.has_value()) {
    if (auto plan = placer_.PlanRebalance(req, pm.degraded); plan.has_value()) {
      ++counters_.migration_rebalances;
      for (const MigrationStep& step : plan->steps) {
        MoveVm(step);
      }
      host = plan->target_host;
    }
  }
  if (host.has_value()) {
    // Home found; start the copy. A cold restore off a failed host pays the
    // full predicted migration time (every pre-copy round plus stop-and-
    // copy) as its reservation-unavailability window.
    pm.target = *host;
    pm.due = now_ + std::max<TimeNs>(vm.spec.migration.Predict().total_time, 1);
    return;
  }
  ++pm.attempts;
  if (pm.attempts >= ft.max_attempts) {
    ++counters_.evacuations_unresolved;
    vm.lost = true;
    pendings_.erase(pendings_.begin() + static_cast<ptrdiff_t>(idx));
    return;
  }
  ++counters_.migration_retries;
  // Bounded exponential backoff between placement attempts for an evacuee the
  // cluster currently has no room for.
  constexpr TimeNs kEvacuationBackoffInitial = Ms(50);
  constexpr double kEvacuationBackoffFactor = 2.0;
  constexpr TimeNs kEvacuationBackoffCap = Sec(2);
  TimeNs backoff = kEvacuationBackoffInitial;
  for (int i = 1; i < pm.attempts && backoff < kEvacuationBackoffCap; ++i) {
    backoff = static_cast<TimeNs>(static_cast<double>(backoff) * kEvacuationBackoffFactor);
  }
  pm.due = now_ + std::min(backoff, kEvacuationBackoffCap);
}

Federation::VmStatus Federation::vm_status(const std::string& name) const {
  size_t i = IndexOf(name);
  const ClusterVm& vm = vms_[i];
  VmStatus s;
  s.host = vm.host;
  s.generation = vm.generation;
  s.degraded = vm.degraded;
  s.lost = vm.lost;
  for (const PendingMigration& pm : pendings_) {
    if (pm.vm == i) {
      s.pending = true;
    }
  }
  return s;
}

ResilienceCounters Federation::resilience() const {
  ResilienceCounters total;
  for (const Host& h : hosts_) {
    AccumulateResilience(total, h.exp->resilience());
  }
  static_cast<ClusterStats&>(total) = counters_;
  return total;
}

void Federation::PrintReport(std::ostream& out, const std::string& title) const {
  PrintExperimentReport(out, title, resilience());
}

namespace {

// The federation section's records, each in byte order; save and restore
// share them.
template <typename H, typename Io>
void HostFields(H& h, Io& io) {
  ckpt::Fields(io, ckpt::As<uint32_t>(h.state), h.factor);
}

// After the VM's name; `host` is ClusterVm::host, kept as I64.
template <typename V, typename Host, typename Io>
void VmFields(V& vm, Host&& host, Io& io) {
  ckpt::Fields(io, host, vm.degraded);
}

// The federation's counters are the cluster rows of the counter table; its
// checkpoint holds them in table order.
template <typename Io>
void ClusterCounterFields(ResilienceCounters& cluster, Io& io) {
  for (const CounterRow& row : CounterRows()) {
    if (std::string_view(row.layer) == "cluster") {
      ckpt::Field(io, cluster.*row.field);
    }
  }
}

}  // namespace

template <typename Self, typename Io>
void Federation::ClockFields(Self& self, Io& io) {
  ckpt::Fields(io, self.now_, self.cursor_, self.seq_);
}

std::string Federation::SaveCheckpoint(ckpt::Image* out) const {
  if (!restore_error_.empty()) {
    return restore_error_;
  }
  if (!pendings_.empty()) {
    return "federation: checkpoint requires no in-flight migrations (" +
           std::to_string(pendings_.size()) + " pending)";
  }
  for (const ClusterVm& vm : vms_) {
    // A landed move changed a host's guest census, which a rebuilt
    // federation (same AdmitVm sequence) cannot reproduce; a dark VM would
    // additionally leave the placer's bookings unreconstructable.
    if (vm.generation != 0 || vm.lost || vm.host < 0 || vm.guest == nullptr) {
      return "federation: checkpoint after a VM move is unsupported (vm '" + vm.spec.name +
             "': generation " + std::to_string(vm.generation) +
             (vm.lost ? ", lost" : vm.host < 0 ? ", dark" : "") + ")";
    }
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].exp->sim().Now() != now_) {
      return "federation: host " + std::to_string(i) +
             " is not at the lock-step barrier (host t=" +
             std::to_string(hosts_[i].exp->sim().Now()) + "ns, federation t=" +
             std::to_string(now_) + "ns)";
    }
  }
  out->sections.clear();
  {
    ckpt::Writer w;
    ClockFields(*this, w);
    w.U32(static_cast<uint32_t>(hosts_.size()));
    for (const Host& h : hosts_) {
      HostFields(h, w);
    }
    w.U32(static_cast<uint32_t>(vms_.size()));
    for (const ClusterVm& vm : vms_) {
      w.Str(vm.spec.name);
      VmFields(vm, int64_t{vm.host}, w);
    }
    ResilienceCounters cluster;
    static_cast<ClusterStats&>(cluster) = counters_;
    ClusterCounterFields(cluster, w);
    out->sections.push_back({"federation", w.Take()});
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    ckpt::Image host_image;
    std::string err = hosts_[i].exp->SaveCheckpoint(&host_image);
    if (!err.empty()) {
      return "federation: host " + std::to_string(i) + ": " + err;
    }
    out->sections.push_back({"host." + std::to_string(i), host_image.Serialize()});
  }
  return "";
}

std::string Federation::RestoreCheckpoint(const ckpt::Image& image) {
  if (!restore_error_.empty()) {
    return restore_error_;
  }
  if (image.sections.size() != hosts_.size() + 1) {
    return "federation: component count mismatch (image has " +
           std::to_string(image.sections.size()) + " sections, this federation expects " +
           std::to_string(hosts_.size() + 1) + ")";
  }
  const ckpt::Section* fed = image.Find("federation");
  if (fed == nullptr) {
    return "federation: missing section 'federation'";
  }
  std::string err = ApplyImage(image, *fed);
  if (!err.empty()) {
    restore_error_ = "federation: unusable after a failed restore (" + err + ")";
  }
  return err;
}

std::string Federation::ApplyImage(const ckpt::Image& image, const ckpt::Section& fed) {
  // The section is read in place and checked before any host restores.
  ckpt::Reader r(fed.bytes);
  ClockFields(*this, r);
  uint32_t n_hosts = r.U32();
  if (!r.ok() || n_hosts != hosts_.size()) {
    return "federation: host count mismatch (image has " + std::to_string(n_hosts) +
           ", this federation has " + std::to_string(hosts_.size()) + ")";
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostFields(hosts_[i], r);
    if (auto s = static_cast<uint32_t>(hosts_[i].state);
        s > static_cast<uint32_t>(HostState::kCrashed)) {
      return "federation: host[" + std::to_string(i) + "] has invalid state " +
             std::to_string(s);
    }
  }
  uint32_t n_vms = r.U32();
  if (!r.ok() || n_vms != vms_.size()) {
    return "federation: VM count mismatch (image has " + std::to_string(n_vms) +
           ", this federation admitted " + std::to_string(vms_.size()) + ")";
  }
  for (size_t i = 0; i < vms_.size(); ++i) {
    std::string name = r.Str();
    int64_t host = 0;
    VmFields(vms_[i], host, r);
    if (!r.ok()) {
      return "federation: truncated section 'federation' at vm " + std::to_string(i);
    }
    if (name != vms_[i].spec.name) {
      return "federation: vm[" + std::to_string(i) + "] name mismatch (image '" + name +
             "', this federation '" + vms_[i].spec.name +
             "') — AdmitVm order diverged from the saving build";
    }
    if (host != vms_[i].host) {
      return "federation: vm '" + name + "' placement mismatch (image host " +
             std::to_string(host) + ", rebuilt host " + std::to_string(vms_[i].host) + ")";
    }
  }
  ResilienceCounters cluster;
  ClusterCounterFields(cluster, r);
  counters_ = cluster;
  if (!r.ok() || !r.AtEnd()) {
    return "federation: malformed section 'federation'";
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    const std::string name = "host." + std::to_string(i);
    const ckpt::Section* section = image.Find(name);
    if (section == nullptr) {
      return "federation: missing section '" + name + "'";
    }
    ckpt::Image host_image;
    std::string err = ckpt::Image::Parse(section->bytes, &host_image);
    if (!err.empty()) {
      return "federation: host " + std::to_string(i) + ": " + err;
    }
    err = hosts_[i].exp->RestoreCheckpoint(host_image);
    if (!err.empty()) {
      return "federation: host " + std::to_string(i) + ": " + err;
    }
  }
  // The machines restored their own PCPU online/speed state; only the
  // placer's availability/capacity view needs re-seeding here.
  if (config_.fault_tolerance.enabled) {
    for (size_t i = 0; i < hosts_.size(); ++i) {
      HostState state = hosts_[i].state;
      placer_.SetHostAvailable(static_cast<int>(i),
                               state == HostState::kHealthy || state == HostState::kDegraded);
      placer_.SetHostCapacityFactor(static_cast<int>(i), hosts_[i].factor);
    }
  }
  return "";
}

}  // namespace rtvirt
