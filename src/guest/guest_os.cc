#include "src/guest/guest_os.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace rtvirt {

GuestOs::GuestOs(Vm* vm, GuestConfig config)
    : vm_(vm), config_(config), ckpt_section_("guest." + std::to_string(vm->id())),
      cross_layer_(std::make_unique<CrossLayerPolicy>()) {
  for (int i = 0; i < vm_->num_vcpus(); ++i) {
    Vcpu* v = vm_->vcpu(i);
    v->set_client(this);
    VcpuRun vr;
    vr.vcpu = v;
    vcpus_.push_back(std::move(vr));
  }
  if (config_.overload.enabled) {
    Arm(kEvPressure, 0, sim()->Now() + config_.overload.pressure_poll);
  }
}

GuestOs::~GuestOs() = default;

void GuestOs::Arm(uint32_t kind, uint64_t payload, TimeNs when) {
  Simulator::EventId id = sim()->At(when, this, kind, payload);
  if (kind == kEvCompletion) {
    vcpus_[payload].completion_event = id;
  }
}

void GuestOs::OnEvent(uint32_t kind, uint64_t payload) {
  if (kind == kEvPressure) {
    PressureTick();
  } else {
    OnJobCompletion(vcpus_[payload]);
  }
}

Vcpu* GuestOs::AddVcpu() {
  Vcpu* v = vm_->AddVcpu();
  v->set_client(this);
  VcpuRun vr;
  vr.vcpu = v;
  vcpus_.push_back(std::move(vr));
  return v;
}

void GuestOs::SetCrossLayer(std::unique_ptr<CrossLayerPolicy> policy) {
  assert(policy != nullptr);
  cross_layer_ = std::move(policy);
}

void GuestOs::SetVcpuCapacity(int vcpu_index, Bandwidth capacity) {
  vcpus_[vcpu_index].capacity = capacity;
}

Task* GuestOs::CreateTask(std::string name) {
  tasks_.push_back(std::make_unique<Task>(std::move(name), Task::Kind::kRta));
  return tasks_.back().get();
}

Task* GuestOs::CreateBackgroundTask(std::string name) {
  tasks_.push_back(std::make_unique<Task>(std::move(name), Task::Kind::kBackground));
  Task* t = tasks_.back().get();
  background_.push_back(t);
  // Background work exists immediately: wake any idle VCPU to pick it up.
  for (auto& vr : vcpus_) {
    if (vr.vcpu->blocked()) {
      vr.vcpu->Wake();
    }
  }
  return t;
}

Bandwidth GuestOs::TotalReservedBw() const {
  Bandwidth total;
  for (const auto& vr : vcpus_) {
    total += vr.reserved;
  }
  return total;
}

TimeNs GuestOs::NextEarliestDeadline(int vcpu_index) const {
  if (global_edf()) {
    return GlobalEarliestDeadline();
  }
  const VcpuRun& vr = vcpus_[vcpu_index];
  TimeNs now = vm_->machine()->sim()->Now();
  TimeNs d = kTimeNever;
  for (const Task* t : vr.rtas) {
    TimeNs cand = kTimeNever;
    if (t->HasPendingJob()) {
      cand = t->FrontJob().deadline;
    } else if (t->params().sporadic) {
      // Worst case (paper section 3.3): a sporadic RTA with minimum period p
      // may be activated immediately and re-activated every p.
      cand = now + t->params().period;
    } else if (t->next_release() < kTimeNever) {
      // Idle periodic RTA: its next release is the next point at which host
      // allocation starts to matter.
      cand = t->next_release();
    }
    d = std::min(d, cand);
  }
  return d;
}

// ---- Dispatch ----

void GuestOs::OnVcpuGranted(Vcpu* vcpu) {
  VcpuRun& vr = RunOf(vcpu);
  vr.on_cpu = true;
  Redispatch(vr);
}

void GuestOs::OnVcpuRevoked(Vcpu* vcpu) {
  VcpuRun& vr = RunOf(vcpu);
  SuspendRunning(vr);
  vr.on_cpu = false;
  // If the revocation coincided with the last job's completion, the VCPU has
  // nothing left to run: block it so the host doesn't re-dispatch it idle.
  if (vcpu->runnable() && PickTask(vr) == nullptr) {
    vcpu->Block();
  }
}

bool GuestOs::BackgroundRunningElsewhere(const Task* task, const VcpuRun& except) const {
  for (const auto& vr : vcpus_) {
    if (&vr != &except && vr.running == task) {
      return true;
    }
  }
  return false;
}

Task* GuestOs::PickTaskGlobal(VcpuRun& vr) {
  Task* best = nullptr;
  for (Task* t : global_rtas_) {
    if (!t->HasPendingJob()) {
      continue;
    }
    bool running_elsewhere = false;
    for (const auto& other : vcpus_) {
      if (&other != &vr && other.running == t) {
        running_elsewhere = true;
        break;
      }
    }
    if (running_elsewhere) {
      continue;
    }
    if (best == nullptr || t->FrontJob().deadline < best->FrontJob().deadline) {
      best = t;
    }
  }
  return best;
}

Task* GuestOs::PickTask(VcpuRun& vr) {
  Task* best = nullptr;
  if (global_edf()) {
    best = PickTaskGlobal(vr);
  } else {
    for (Task* t : vr.rtas) {
      if (t->HasPendingJob() &&
          (best == nullptr || t->FrontJob().deadline < best->FrontJob().deadline)) {
        best = t;
      }
    }
  }
  if (best != nullptr) {
    return best;
  }
  // No time-sensitive work: round-robin over background tasks not already
  // running on a sibling VCPU.
  for (size_t i = 0; i < background_.size(); ++i) {
    Task* bg = background_[(bg_cursor_ + i) % background_.size()];
    if (!BackgroundRunningElsewhere(bg, vr)) {
      bg_cursor_ = (bg_cursor_ + i + 1) % background_.size();
      return bg;
    }
  }
  return nullptr;
}

void GuestOs::Redispatch(VcpuRun& vr) {
  if (!vr.on_cpu) {
    return;
  }
  Task* next = PickTask(vr);
  if (next == nullptr) {
    SuspendRunning(vr);
    vr.vcpu->Block();
    return;
  }
  if (next == vr.running) {
    return;
  }
  SuspendRunning(vr);
  StartRunning(vr, next);
}

void GuestOs::StartRunning(VcpuRun& vr, Task* task) {
  assert(vr.on_cpu && vr.running == nullptr);
  vr.running = task;
  vr.run_start = sim()->Now();
  Pcpu* p = vr.vcpu->pcpu();
  vr.run_speed_ppb = p != nullptr ? p->speed_ppb() : Bandwidth::kUnit;
  if (task->is_rta()) {
    Arm(kEvCompletion, static_cast<uint64_t>(vr.vcpu->index()),
        sim()->Now() + SpeedWorkToWall(task->FrontJob().remaining, vr.run_speed_ppb));
  }
  // Background tasks have unbounded work: no completion event.
}

void GuestOs::SuspendRunning(VcpuRun& vr) {
  if (vr.running == nullptr) {
    return;
  }
  sim()->Cancel(vr.completion_event);
  Task* t = vr.running;
  vr.running = nullptr;
  if (!t->is_rta()) {
    return;
  }
  TimeNs ran = sim()->Now() - vr.run_start;
  Job& job = t->MutableFrontJob();
  job.remaining -= SpeedWallToWork(ran, vr.run_speed_ppb);
  assert(job.remaining >= 0);
  if (job.remaining == 0) {
    // The revocation landed exactly at job completion (e.g., the host slice
    // ends with the job): finalize now rather than on the next dispatch.
    FinishFrontJob(vr, t);
  }
}

void GuestOs::FinishFrontJob(VcpuRun& vr, Task* t) {
  TimeNs now = sim()->Now();
  Job job = t->FrontJob();
  t->jobs_.pop_front();
  ++t->jobs_completed_;
  if (t->observer() != nullptr) {
    t->observer()->OnJobCompleted(*t, job, now);
  }
  PublishDeadline(vr);
}

void GuestOs::OnJobCompletion(VcpuRun& vr) {
  Task* t = vr.running;
  assert(t != nullptr && t->is_rta());
  Job& job = t->MutableFrontJob();
  job.remaining -= SpeedWallToWork(sim()->Now() - vr.run_start, vr.run_speed_ppb);
  assert(job.remaining == 0);
  vr.running = nullptr;
  vr.completion_event = Simulator::EventId();
  FinishFrontJob(vr, t);
  Redispatch(vr);
}

TimeNs GuestOs::GlobalEarliestDeadline() const {
  TimeNs now = vm_->machine()->sim()->Now();
  TimeNs d = kTimeNever;
  for (const Task* t : global_rtas_) {
    TimeNs cand = kTimeNever;
    if (t->HasPendingJob()) {
      cand = t->FrontJob().deadline;
    } else if (t->params().sporadic) {
      cand = now + t->params().period;
    } else if (t->next_release() < kTimeNever) {
      cand = t->next_release();
    }
    d = std::min(d, cand);
  }
  return d;
}

void GuestOs::PublishGlobalDeadline() {
  // gEDF cannot attribute deadlines to VCPUs (any VCPU may run any task), so
  // every VCPU publishes the global earliest — one of the sources of
  // cross-layer complexity the paper cites for preferring pEDF.
  TimeNs d = GlobalEarliestDeadline();
  for (auto& vr : vcpus_) {
    cross_layer_->PublishNextDeadline(vr.vcpu, d);
  }
}

void GuestOs::PublishDeadline(VcpuRun& vr) {
  if (global_edf()) {
    PublishGlobalDeadline();
    return;
  }
  cross_layer_->PublishNextDeadline(vr.vcpu, NextEarliestDeadline(vr.vcpu->index()));
}

void GuestOs::ReleaseJob(Task* task, TimeNs work, TimeNs deadline) {
  assert(task->is_rta());
  if (vm_->crashed() || !task->registered()) {
    // Crashed VM, or a task dropped by ResetAfterCrash whose release chain
    // is still ticking: the release is lost with the VM.
    return;
  }
  if (task->shed()) {
    // Suspended by overload control: the task holds no reservation, so its
    // releases are dropped (counted, not silently) until it is resumed.
    ++overload_stats_.shed_job_drops;
    return;
  }
  assert(work > 0);
  if (task->compressed() && work > task->EffectiveSlice()) {
    // Elastic-task model: a compressed RTA adapts its per-period work to the
    // budget it actually holds (e.g., a video decoder dropping quality).
    work = task->EffectiveSlice();
  }
  TimeNs now = sim()->Now();
  task->jobs_.push_back(Job{now, deadline, work, work});

  if (global_edf()) {
    PublishGlobalDeadline();
    // Wake an idle VCPU if there is one...
    for (auto& vr : vcpus_) {
      if (vr.running == task) {
        return;  // Already being served; the new job queues behind.
      }
    }
    for (auto& vr : vcpus_) {
      if (vr.vcpu->blocked()) {
        vr.vcpu->Wake();
        return;
      }
    }
    // ...else preempt the VCPU running background work or the latest
    // deadline (gEDF).
    VcpuRun* victim = nullptr;
    for (auto& vr : vcpus_) {
      if (!vr.on_cpu || vr.running == nullptr) {
        continue;
      }
      if (!vr.running->is_rta()) {
        victim = &vr;  // Background work always loses.
        break;
      }
      if (vr.running->FrontJob().deadline > deadline &&
          (victim == nullptr ||
           vr.running->FrontJob().deadline > victim->running->FrontJob().deadline)) {
        victim = &vr;
      }
    }
    if (victim != nullptr) {
      Redispatch(*victim);
    }
    return;
  }

  VcpuRun& vr = vcpus_[task->vcpu_index()];
  PublishDeadline(vr);
  if (vr.vcpu->blocked()) {
    vr.vcpu->Wake();
    return;
  }
  if (vr.on_cpu &&
      (vr.running == nullptr || !vr.running->is_rta() ||
       vr.running->FrontJob().deadline > deadline)) {
    Redispatch(vr);
  }
}

// ---- Registration / admission ----

void GuestOs::RecomputeVcpu(VcpuRun& vr) {
  vr.reserved = Bandwidth::Zero();
  vr.min_period = kTimeNever;
  for (const Task* t : vr.rtas) {
    // Effective = compressed bandwidth when overload control squeezed the
    // task; identical to params().bandwidth() otherwise.
    vr.reserved += t->EffectiveBandwidth();
    vr.min_period = std::min(vr.min_period, t->params().period);
  }
}

TimeNs GuestOs::MinPeriodWith(const VcpuRun& vr, TimeNs extra_period) const {
  TimeNs p = extra_period;
  for (const Task* t : vr.rtas) {
    p = std::min(p, t->params().period);
  }
  return p;
}

int GuestOs::FindFirstFit(Bandwidth bw, int exclude_index) const {
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (static_cast<int>(i) == exclude_index) {
      continue;
    }
    if (vcpus_[i].reserved + bw <= vcpus_[i].capacity) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void GuestOs::PinTask(Task* task, int vcpu_index, const RtaParams& params) {
  task->params_ = params;
  task->registered_ = true;
  task->vcpu_index_ = vcpu_index;
  VcpuRun& vr = vcpus_[vcpu_index];
  vr.rtas.push_back(task);
  RecomputeVcpu(vr);
  PublishDeadline(vr);
}

void GuestOs::UnpinTask(Task* task) {
  VcpuRun& vr = vcpus_[task->vcpu_index()];
  if (vr.running == task) {
    SuspendRunning(vr);
  }
  vr.rtas.erase(std::remove(vr.rtas.begin(), vr.rtas.end(), task), vr.rtas.end());
  RecomputeVcpu(vr);
  task->vcpu_index_ = -1;
}

int64_t GuestOs::RequestGlobalShares(Bandwidth total, TimeNs min_period) {
  // Every VCPU carries an equal share (rounded up) of the total bandwidth.
  int n = static_cast<int>(vcpus_.size());
  Bandwidth share = Bandwidth::FromPpb((total.ppb() + n - 1) / n);
  Bandwidth old_share = Bandwidth::FromPpb((global_total_.ppb() + n - 1) / n);
  for (int i = 0; i < n; ++i) {
    int64_t rc = cross_layer_->RequestBandwidth(vcpus_[i].vcpu, share, min_period);
    if (rc != kHypercallOk) {
      for (int j = 0; j < i; ++j) {  // Roll back to the previous shares.
        cross_layer_->RequestBandwidth(vcpus_[j].vcpu, old_share, global_min_period_);
      }
      return rc;
    }
  }
  return kHypercallOk;
}

int GuestOs::SchedSetAttrGlobal(Task* task, const RtaParams& params) {
  Bandwidth nbw = params.bandwidth();
  Bandwidth old = task->registered() ? task->params().bandwidth() : Bandwidth::Zero();
  Bandwidth new_total = global_total_ - old + nbw;
  Bandwidth capacity;
  for (const auto& vr : vcpus_) {
    capacity += vr.capacity;
  }
  if (new_total > capacity) {
    return kGuestErrBusy;
  }
  TimeNs new_min_period = params.period;
  for (const Task* t : global_rtas_) {
    if (t != task) {
      new_min_period = std::min(new_min_period, t->params().period);
    }
  }
  if (RequestGlobalShares(new_total, new_min_period) != kHypercallOk) {
    return kGuestErrBusy;
  }
  if (!task->registered()) {
    global_rtas_.push_back(task);
  }
  task->params_ = params;
  task->registered_ = true;
  task->vcpu_index_ = -1;  // Unpinned: any VCPU may run it.
  global_total_ = new_total;
  global_min_period_ = new_min_period;
  PublishGlobalDeadline();
  return kGuestOk;
}

int GuestOs::SchedUnregisterGlobal(Task* task) {
  global_rtas_.erase(std::remove(global_rtas_.begin(), global_rtas_.end(), task),
                     global_rtas_.end());
  for (auto& vr : vcpus_) {
    if (vr.running == task) {
      SuspendRunning(vr);
      task->jobs_.clear();
      Redispatch(vr);
      break;
    }
  }
  task->jobs_.clear();
  task->registered_ = false;
  global_total_ -= task->params().bandwidth();
  global_min_period_ = kTimeNever;
  for (const Task* t : global_rtas_) {
    global_min_period_ = std::min(global_min_period_, t->params().period);
  }
  RequestGlobalShares(global_total_, global_min_period_);
  PublishGlobalDeadline();
  return kGuestOk;
}

int GuestOs::SchedSetAttr(Task* task, const RtaParams& params, int64_t bw_reason) {
  if (!task->is_rta() || params.period <= 0 || params.slice <= 0 ||
      params.slice > params.period) {
    return kGuestErrInvalid;
  }
  if (vm_->crashed()) {
    return kGuestErrBusy;  // No guest kernel to run the syscall.
  }
  if (global_edf()) {
    return SchedSetAttrGlobal(task, params);
  }
  Bandwidth nbw = params.bandwidth();

  if (task->registered() && task->shed()) {
    // Changing the parameters of a shed task re-admits it from scratch: it
    // holds no pin or reservation, so forget it and fall into registration.
    shed_.erase(std::remove(shed_.begin(), shed_.end(), task), shed_.end());
    task->shed_ = false;
    task->compressed_slice_ = 0;
    task->registered_ = false;
    task->jobs_.clear();
  }

  if (!task->registered()) {
    bool via_overload = false;
    while (true) {
      int idx = FindFirstFit(nbw, /*exclude_index=*/-1);
      if (idx < 0) {
        idx = ReshuffleFor(nbw);
      }
      if (idx < 0 && config_.allow_hotplug &&
          static_cast<int>(vcpus_.size()) < config_.max_vcpus) {
        AddVcpu();
        idx = static_cast<int>(vcpus_.size()) - 1;
      }
      if (idx < 0 && config_.overload.enabled) {
        // Mixed-criticality admission: degrade strictly-lower-criticality
        // reservations until the newcomer fits, instead of rejecting it.
        idx = AdmitViaOverload(params);
        via_overload = idx >= 0;
      }
      if (idx < 0) {
        return kGuestErrBusy;
      }
      VcpuRun& vr = vcpus_[idx];
      // Hypercall before assigning the RTA to the candidate VCPU (section 3.2).
      int64_t rc = cross_layer_->RequestBandwidth(vr.vcpu, vr.reserved + nbw,
                                                  MinPeriodWith(vr, params.period),
                                                  kBwReasonAdmission);
      if (rc == kHypercallOk) {
        if (via_overload) {
          ++overload_stats_.overload_admissions;
        }
        PinTask(task, idx, params);
        Redispatch(vr);
        return kGuestOk;
      }
      // Host-level rejection. Under overload control a degradation step
      // releases host bandwidth (DEC_BW), so retry after one; each step
      // compresses or sheds something, so the loop terminates.
      if (rc != kHypercallNoBandwidth || !config_.overload.enabled ||
          !DegradeStepFor(params.criticality)) {
        return kGuestErrBusy;
      }
      via_overload = true;
    }
  }

  // Parameter change for an already-registered RTA. The new parameters are a
  // new contract: any overload compression of the old ones is forgotten.
  VcpuRun& cur = vcpus_[task->vcpu_index()];
  Bandwidth obw = task->EffectiveBandwidth();
  Bandwidth in_place = cur.reserved - obw + nbw;
  if (in_place <= cur.capacity) {
    // Recompute the period as if the task already had the new parameters.
    TimeNs new_period = params.period;
    for (const Task* t : cur.rtas) {
      if (t != task) {
        new_period = std::min(new_period, t->params().period);
      }
    }
    if (nbw > obw) {
      int64_t rc = cross_layer_->RequestBandwidth(cur.vcpu, in_place, new_period, bw_reason);
      if (rc != kHypercallOk) {
        return kGuestErrBusy;
      }
      task->params_ = params;
      task->compressed_slice_ = 0;
      RecomputeVcpu(cur);
    } else {
      task->params_ = params;
      task->compressed_slice_ = 0;
      RecomputeVcpu(cur);
      cross_layer_->ReleaseBandwidth(cur.vcpu, cur.reserved, cur.min_period, bw_reason);
    }
    PublishDeadline(cur);
    Redispatch(cur);
    return kGuestOk;
  }

  // Must move to a different VCPU: INC_DEC_BW (section 3.2, case 2).
  int idx = FindFirstFit(nbw, task->vcpu_index());
  if (idx < 0) {
    return kGuestErrBusy;
  }
  VcpuRun& to = vcpus_[idx];
  Bandwidth from_bw = cur.reserved - obw;
  TimeNs from_period = kTimeNever;
  for (const Task* t : cur.rtas) {
    if (t != task) {
      from_period = std::min(from_period, t->params().period);
    }
  }
  int64_t rc =
      cross_layer_->MoveBandwidth(to.vcpu, to.reserved + nbw, MinPeriodWith(to, params.period),
                                  cur.vcpu, from_bw, from_period);
  if (rc != kHypercallOk) {
    return kGuestErrBusy;
  }
  UnpinTask(task);
  PublishDeadline(cur);
  Redispatch(cur);
  task->compressed_slice_ = 0;
  PinTask(task, idx, params);
  Redispatch(to);
  return kGuestOk;
}

int GuestOs::SchedUnregister(Task* task) {
  if (!task->registered()) {
    return kGuestErrInvalid;
  }
  if (vm_->crashed()) {
    return kGuestErrBusy;
  }
  if (global_edf()) {
    return SchedUnregisterGlobal(task);
  }
  if (task->shed()) {
    // A shed task holds no pin or host reservation: forgetting it is a
    // purely local operation.
    shed_.erase(std::remove(shed_.begin(), shed_.end(), task), shed_.end());
    task->shed_ = false;
    task->compressed_slice_ = 0;
    task->registered_ = false;
    task->jobs_.clear();
    return kGuestOk;
  }
  VcpuRun& vr = vcpus_[task->vcpu_index()];
  UnpinTask(task);
  task->registered_ = false;
  task->jobs_.clear();
  cross_layer_->ReleaseBandwidth(vr.vcpu, vr.reserved, vr.min_period);
  PublishDeadline(vr);
  Redispatch(vr);
  return kGuestOk;
}

void GuestOs::ResetAfterCrash() {
  for (auto& vr : vcpus_) {
    sim()->Cancel(vr.completion_event);
    vr.completion_event = Simulator::EventId();
    vr.running = nullptr;
    vr.on_cpu = false;
    vr.rtas.clear();
    vr.reserved = Bandwidth::Zero();
    vr.min_period = kTimeNever;
  }
  for (auto& t : tasks_) {
    t->jobs_.clear();
    t->registered_ = false;
    t->vcpu_index_ = -1;
    t->shed_ = false;
    t->compressed_slice_ = 0;
  }
  shed_.clear();
  pressure_ticks_under_ = 0;
  pressure_clear_ticks_ = 0;
  global_rtas_.clear();
  global_total_ = Bandwidth::Zero();
  global_min_period_ = kTimeNever;
  // The host-side reservations this guest held are orphaned, not released:
  // a crashed kernel issues no DEC_BW. The host watchdog reclaims them.
  cross_layer_->Reset();
}

void GuestOs::OnVmRestart() {
  for (auto& vr : vcpus_) {
    if (vr.vcpu->blocked() && PickTask(vr) != nullptr) {
      vr.vcpu->Wake();
    }
  }
}

int GuestOs::ReshuffleFor(Bandwidth bw) {
  // First-fit-decreasing over all registered RTAs plus a virtual item of
  // bandwidth `bw` representing the incoming RTA.
  struct Item {
    Task* task;  // nullptr: the virtual item.
    Bandwidth bw;
  };
  std::vector<Item> items;
  items.push_back(Item{nullptr, bw});
  for (const auto& vr : vcpus_) {
    for (Task* t : vr.rtas) {
      items.push_back(Item{t, t->EffectiveBandwidth()});
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.bw > b.bw; });

  std::vector<Bandwidth> load(vcpus_.size());
  std::vector<int> bin(items.size(), -1);
  for (size_t k = 0; k < items.size(); ++k) {
    for (size_t i = 0; i < vcpus_.size(); ++i) {
      if (load[i] + items[k].bw <= vcpus_[i].capacity) {
        load[i] += items[k].bw;
        bin[k] = static_cast<int>(i);
        break;
      }
    }
    if (bin[k] < 0) {
      return -1;  // No packing: fall back to hotplug or rejection.
    }
  }

  // Desired post-reshuffle per-VCPU reservations, *excluding* the virtual
  // item (the caller issues the INC_BW for the new RTA itself).
  int target = -1;
  std::vector<std::vector<Task*>> assign(vcpus_.size());
  for (size_t k = 0; k < items.size(); ++k) {
    if (items[k].task == nullptr) {
      target = bin[k];
    } else {
      assign[bin[k]].push_back(items[k].task);
    }
  }

  std::vector<Bandwidth> new_bw(vcpus_.size());
  std::vector<TimeNs> new_period(vcpus_.size(), kTimeNever);
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    for (const Task* t : assign[i]) {
      new_bw[i] += t->EffectiveBandwidth();
      new_period[i] = std::min(new_period[i], t->params().period);
    }
  }

  // Hypercall order: decreases first, then increases, so the host's total
  // never transiently exceeds what it already admitted.
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (new_bw[i] < vcpus_[i].reserved) {
      cross_layer_->ReleaseBandwidth(vcpus_[i].vcpu, new_bw[i], new_period[i]);
    }
  }
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (new_bw[i] > vcpus_[i].reserved) {
      int64_t rc = cross_layer_->RequestBandwidth(vcpus_[i].vcpu, new_bw[i], new_period[i]);
      // The total reservation did not grow, so the host must accept.
      assert(rc == kHypercallOk);
      (void)rc;
    }
  }

  // Apply the task moves.
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    VcpuRun& vr = vcpus_[i];
    for (Task* t : std::vector<Task*>(vr.rtas)) {
      // Keep tasks already in the right bin.
      bool stays = std::find(assign[i].begin(), assign[i].end(), t) != assign[i].end();
      if (!stays && vr.running == t) {
        SuspendRunning(vr);
      }
    }
  }
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    vcpus_[i].rtas = assign[i];
    for (Task* t : assign[i]) {
      t->vcpu_index_ = static_cast<int>(i);
    }
    RecomputeVcpu(vcpus_[i]);
    PublishDeadline(vcpus_[i]);
    Redispatch(vcpus_[i]);
  }
  return target;
}

// ---- Overload control (mixed-criticality elastic degradation) ----

bool GuestOs::CompressUpTo(int max_level) {
  bool any = false;
  for (auto& vr : vcpus_) {
    bool changed = false;
    for (Task* t : vr.rtas) {
      if (CritLevel(t) <= max_level && t->params().elastic() && !t->compressed()) {
        t->compressed_slice_ = t->params().min_slice;
        ++overload_stats_.compressions;
        // The elastic task adapts immediately: queued jobs (including the
        // running one) truncate their remaining work to the compressed
        // budget. Without this the pre-compression backlog can never drain
        // — supply now equals per-period demand — and every later job
        // inherits the tardiness.
        if (vr.running == t) {
          SuspendRunning(vr);  // Banks progress; may finish an exact job.
        }
        for (Job& j : t->jobs_) {
          TimeNs done = j.work - j.remaining;
          TimeNs target = std::max(done, t->EffectiveSlice());
          if (j.work > target) {
            j.work = target;
            j.remaining = target - done;
          }
        }
        changed = true;
      }
    }
    if (changed) {
      RecomputeVcpu(vr);
      cross_layer_->ReleaseBandwidth(vr.vcpu, vr.reserved, vr.min_period,
                                     kBwReasonOverloadShed);
      PublishDeadline(vr);
      Redispatch(vr);
      any = true;
    }
  }
  return any;
}

bool GuestOs::ShedOneUpTo(int max_level) {
  Task* victim = nullptr;
  for (auto& vr : vcpus_) {
    for (Task* t : vr.rtas) {
      if (CritLevel(t) > max_level) {
        continue;
      }
      if (victim == nullptr || CritLevel(t) < CritLevel(victim) ||
          (CritLevel(t) == CritLevel(victim) &&
           t->EffectiveBandwidth() > victim->EffectiveBandwidth())) {
        victim = t;
      }
    }
  }
  if (victim == nullptr) {
    return false;
  }
  VcpuRun& vr = vcpus_[victim->vcpu_index()];
  UnpinTask(victim);  // Suspends it if running; drops it from the pin set.
  victim->shed_ = true;
  victim->jobs_.clear();
  shed_.push_back(victim);
  ++overload_stats_.sheds;
  cross_layer_->ReleaseBandwidth(vr.vcpu, vr.reserved, vr.min_period,
                                 kBwReasonOverloadShed);
  PublishDeadline(vr);
  Redispatch(vr);
  return true;
}

bool GuestOs::DegradeStepFor(Criticality crit) {
  // Admission-time degradation only sacrifices strictly lower criticality:
  // a LOW newcomer can displace nothing, HIGH can displace LOW and MED.
  int below = static_cast<int>(crit) - 1;
  if (CompressUpTo(below)) {
    return true;
  }
  return ShedOneUpTo(below);
}

int GuestOs::AdmitViaOverload(const RtaParams& params) {
  Bandwidth nbw = params.bandwidth();
  while (DegradeStepFor(params.criticality)) {
    int idx = FindFirstFit(nbw, /*exclude_index=*/-1);
    if (idx < 0) {
      idx = ReshuffleFor(nbw);
    }
    if (idx >= 0) {
      return idx;
    }
  }
  return -1;
}

void GuestOs::PressureTick() {
  // Fixed cadence regardless of what this tick does.
  Arm(kEvPressure, 0, sim()->Now() + config_.overload.pressure_poll);
  if (vm_->crashed() || global_edf()) {
    return;
  }
  if (vm_->shared_page().pressure_level() > 0) {
    pressure_clear_ticks_ = 0;
    if (CompressUpTo(static_cast<int>(config_.overload.compress_ceiling))) {
      // Compression just released bandwidth; give the host a tick to react
      // before escalating to shedding.
      pressure_ticks_under_ = 0;
      return;
    }
    if (pressure_ticks_under_ < config_.overload.shed_after_ticks) {
      ++pressure_ticks_under_;
    }
    if (pressure_ticks_under_ >= config_.overload.shed_after_ticks) {
      ShedOneUpTo(static_cast<int>(config_.overload.shed_ceiling));
    }
    return;
  }
  pressure_ticks_under_ = 0;
  if (pressure_clear_ticks_ < config_.overload.reinflate_hold_ticks) {
    ++pressure_clear_ticks_;
    return;
  }
  // Pressure has been clear long enough (hysteresis): undo one degradation
  // step per tick — resume a shed task first, else re-inflate one compressed
  // reservation. Gradual re-inflation avoids compress/expand oscillation.
  if (!TryResumeShed()) {
    TryExpandOne();
  }
}

bool GuestOs::HostHeadroomCovers(Bandwidth delta) const {
  const SharedSchedPage& page = vm_->shared_page();
  if (page.pressure_published_at() < 0) {
    // No host pressure publisher (host-side overload scan off): fall back to
    // probing by hypercall; the host still enforces admission.
    return true;
  }
  // The channel pads requests with slack, so leave the slack's worth of
  // margin by requiring strictly-covering headroom.
  return delta.ppb() <= page.pressure_headroom_ppb();
}

bool GuestOs::TryResumeShed() {
  Task* best = nullptr;
  for (Task* t : shed_) {
    if (best == nullptr || CritLevel(t) > CritLevel(best)) {
      best = t;
    }
  }
  if (best == nullptr) {
    return false;
  }
  // A task shed while compressed resumes compressed; TryExpandOne restores
  // its full budget later if room appears.
  Bandwidth bw = best->EffectiveBandwidth();
  if (!HostHeadroomCovers(bw)) {
    return false;  // Host advertises no room; wait, don't probe.
  }
  int idx = FindFirstFit(bw, /*exclude_index=*/-1);
  if (idx < 0) {
    return false;  // No local room yet; retry next tick.
  }
  VcpuRun& vr = vcpus_[idx];
  int64_t rc = cross_layer_->RequestBandwidth(vr.vcpu, vr.reserved + bw,
                                              MinPeriodWith(vr, best->params().period),
                                              kBwReasonReinflate);
  if (rc != kHypercallOk) {
    // Lost a race for the advertised headroom (another guest took it).
    // Restart the hysteresis window rather than re-probing every tick.
    pressure_clear_ticks_ = 0;
    return false;
  }
  shed_.erase(std::remove(shed_.begin(), shed_.end(), best), shed_.end());
  best->shed_ = false;
  ++overload_stats_.resumes;
  PinTask(best, idx, best->params_);
  Redispatch(vr);
  return true;
}

bool GuestOs::TryExpandOne() {
  Task* best = nullptr;
  for (auto& vr : vcpus_) {
    for (Task* t : vr.rtas) {
      if (t->compressed() && (best == nullptr || CritLevel(t) > CritLevel(best))) {
        best = t;
      }
    }
  }
  if (best == nullptr) {
    return false;
  }
  VcpuRun& vr = vcpus_[best->vcpu_index()];
  Bandwidth expanded = vr.reserved - best->EffectiveBandwidth() + best->params().bandwidth();
  if (expanded > vr.capacity) {
    return false;  // In-place only; a later tick may free local room.
  }
  if (!HostHeadroomCovers(expanded - vr.reserved)) {
    return false;  // Host advertises no room; wait, don't probe.
  }
  int64_t rc =
      cross_layer_->RequestBandwidth(vr.vcpu, expanded, vr.min_period, kBwReasonReinflate);
  if (rc != kHypercallOk) {
    pressure_clear_ticks_ = 0;  // Lost the headroom race; back off one hold.
    return false;
  }
  best->compressed_slice_ = 0;
  RecomputeVcpu(vr);
  ++overload_stats_.expansions;
  PublishDeadline(vr);
  return true;
}

void GuestOs::SaveState(ckpt::Writer& w) const {
  w.I64(global_total_.ppb());
  w.I64(global_min_period_);
  w.U64(bg_cursor_);
  w.U32(static_cast<uint32_t>(pressure_ticks_under_));
  w.U32(static_cast<uint32_t>(pressure_clear_ticks_));
  w.U64(overload_stats_.compressions);
  w.U64(overload_stats_.expansions);
  w.U64(overload_stats_.sheds);
  w.U64(overload_stats_.resumes);
  w.U64(overload_stats_.shed_job_drops);
  w.U64(overload_stats_.overload_admissions);

  // Tasks are created by the experiment builder in a fixed order; the restore
  // target has the same tasks_ vector, so indices are stable identifiers.
  auto index_of = [this](const Task* t) -> uint32_t {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].get() == t) {
        return static_cast<uint32_t>(i);
      }
    }
    return static_cast<uint32_t>(-1);
  };
  w.U32(static_cast<uint32_t>(tasks_.size()));
  for (const auto& t : tasks_) {
    w.Str(t->name_);
    w.U8(static_cast<uint8_t>(t->kind_));
    w.I64(t->params_.slice);
    w.I64(t->params_.period);
    w.Bool(t->params_.sporadic);
    w.U8(static_cast<uint8_t>(t->params_.criticality));
    w.I64(t->params_.min_slice);
    w.Bool(t->registered_);
    w.U32(static_cast<uint32_t>(t->vcpu_index_));
    w.Bool(t->shed_);
    w.I64(t->compressed_slice_);
    w.I64(t->next_release_);
    w.U64(t->jobs_completed_);
    w.U32(static_cast<uint32_t>(t->jobs_.size()));
    for (const Job& j : t->jobs_) {
      w.I64(j.release);
      w.I64(j.deadline);
      w.I64(j.work);
      w.I64(j.remaining);
    }
  }

  w.U32(static_cast<uint32_t>(vcpus_.size()));
  for (const auto& vr : vcpus_) {
    w.U32(static_cast<uint32_t>(vr.rtas.size()));
    for (const Task* t : vr.rtas) {
      w.U32(index_of(t));
    }
    w.I64(vr.reserved.ppb());
    w.I64(vr.capacity.ppb());
    w.I64(vr.min_period);
    w.Bool(vr.on_cpu);
    w.U32(vr.running != nullptr ? index_of(vr.running) : static_cast<uint32_t>(-1));
    w.I64(vr.run_start);
    w.I64(vr.run_speed_ppb);
  }

  w.U32(static_cast<uint32_t>(global_rtas_.size()));
  for (const Task* t : global_rtas_) {
    w.U32(index_of(t));
  }
  w.U32(static_cast<uint32_t>(shed_.size()));
  for (const Task* t : shed_) {
    w.U32(index_of(t));
  }
}

std::string GuestOs::RestoreState(ckpt::Reader& r) {
  global_total_ = Bandwidth::FromPpb(r.I64());
  global_min_period_ = r.I64();
  bg_cursor_ = r.U64();
  pressure_ticks_under_ = static_cast<int>(r.U32());
  pressure_clear_ticks_ = static_cast<int>(r.U32());
  overload_stats_.compressions = r.U64();
  overload_stats_.expansions = r.U64();
  overload_stats_.sheds = r.U64();
  overload_stats_.resumes = r.U64();
  overload_stats_.shed_job_drops = r.U64();
  overload_stats_.overload_admissions = r.U64();

  uint32_t n_tasks = r.U32();
  if (!r.ok() || n_tasks != tasks_.size()) {
    return ckpt_section_ + ": task count mismatch (checkpoint has " +
           std::to_string(n_tasks) + ", this guest has " +
           std::to_string(tasks_.size()) + ")";
  }
  for (size_t i = 0; i < tasks_.size(); ++i) {
    Task* t = tasks_[i].get();
    std::string name = r.Str();
    if (name != t->name_) {
      return ckpt_section_ + ": task[" + std::to_string(i) + "] name mismatch (got '" +
             name + "', this guest has '" + t->name_ + "')";
    }
    uint8_t kind = r.U8();
    if (kind != static_cast<uint8_t>(t->kind_)) {
      return ckpt_section_ + ": task '" + t->name_ + "' kind mismatch";
    }
    t->params_.slice = r.I64();
    t->params_.period = r.I64();
    t->params_.sporadic = r.Bool();
    t->params_.criticality = static_cast<Criticality>(r.U8());
    t->params_.min_slice = r.I64();
    t->registered_ = r.Bool();
    t->vcpu_index_ = static_cast<int>(r.U32());
    t->shed_ = r.Bool();
    t->compressed_slice_ = r.I64();
    t->next_release_ = r.I64();
    t->jobs_completed_ = r.U64();
    t->jobs_.clear();
    uint32_t n_jobs = r.U32();
    for (uint32_t k = 0; k < n_jobs && r.ok(); ++k) {
      Job j;
      j.release = r.I64();
      j.deadline = r.I64();
      j.work = r.I64();
      j.remaining = r.I64();
      t->jobs_.push_back(j);
    }
  }

  auto task_at = [this](uint32_t idx) -> Task* {
    return idx < tasks_.size() ? tasks_[idx].get() : nullptr;
  };
  uint32_t n_vcpus = r.U32();
  if (!r.ok() || n_vcpus != vcpus_.size()) {
    // A count mismatch here (after the machine section already validated the
    // global VCPU census) means runtime hotplug grew the guest mid-run;
    // such a guest cannot be restored onto a fresh build.
    return ckpt_section_ + ": VCPU count mismatch (checkpoint has " +
           std::to_string(n_vcpus) + ", this guest has " +
           std::to_string(vcpus_.size()) + ")";
  }
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    VcpuRun& vr = vcpus_[i];
    vr.rtas.clear();
    uint32_t n_rtas = r.U32();
    for (uint32_t k = 0; k < n_rtas && r.ok(); ++k) {
      Task* t = task_at(r.U32());
      if (t == nullptr) {
        return ckpt_section_ + ": vcpu " + std::to_string(i) +
               " pin set references unknown task";
      }
      vr.rtas.push_back(t);
    }
    vr.reserved = Bandwidth::FromPpb(r.I64());
    vr.capacity = Bandwidth::FromPpb(r.I64());
    vr.min_period = r.I64();
    vr.on_cpu = r.Bool();
    uint32_t running = r.U32();
    vr.running = running == static_cast<uint32_t>(-1) ? nullptr : task_at(running);
    if (running != static_cast<uint32_t>(-1) && vr.running == nullptr) {
      return ckpt_section_ + ": vcpu " + std::to_string(i) +
             " running references unknown task";
    }
    vr.run_start = r.I64();
    vr.run_speed_ppb = r.I64();
  }

  global_rtas_.clear();
  uint32_t n_global = r.U32();
  for (uint32_t k = 0; k < n_global && r.ok(); ++k) {
    Task* t = task_at(r.U32());
    if (t == nullptr) {
      return ckpt_section_ + ": gEDF list references unknown task";
    }
    global_rtas_.push_back(t);
  }
  shed_.clear();
  uint32_t n_shed = r.U32();
  for (uint32_t k = 0; k < n_shed && r.ok(); ++k) {
    Task* t = task_at(r.U32());
    if (t == nullptr) {
      return ckpt_section_ + ": shed list references unknown task";
    }
    shed_.push_back(t);
  }
  return r.ok() ? "" : ckpt_section_ + ": truncated section";
}

std::string GuestOs::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  bool known = (kind == kEvPressure && payload == 0) ||
               (kind == kEvCompletion && payload < vcpus_.size());
  if (!known) {
    return ckpt_section_ + ": unknown event kind " + std::to_string(kind) + " payload " +
           std::to_string(payload);
  }
  Arm(kind, payload, when);
  return "";
}

std::vector<std::string> GuestOs::AuditInvariants() const {
  std::vector<std::string> violations;
  char buf[256];
  if (global_edf()) {
    Bandwidth total;
    for (const Task* t : global_rtas_) {
      total += t->params().bandwidth();
    }
    if (total != global_total_) {
      std::snprintf(buf, sizeof(buf),
                    "gEDF total %lld ppb != sum of registered RTA bandwidths %lld ppb",
                    static_cast<long long>(global_total_.ppb()),
                    static_cast<long long>(total.ppb()));
      violations.emplace_back(buf);
    }
    return violations;
  }
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    const VcpuRun& vr = vcpus_[i];
    Bandwidth sum;
    for (const Task* t : vr.rtas) {
      sum += t->EffectiveBandwidth();
      if (t->vcpu_index() != static_cast<int>(i)) {
        std::snprintf(buf, sizeof(buf), "task %s pinned to vcpu %zu but vcpu_index=%d",
                      t->name().c_str(), i, t->vcpu_index());
        violations.emplace_back(buf);
      }
      if (!t->registered() || t->shed()) {
        std::snprintf(buf, sizeof(buf), "task %s in vcpu %zu pin set but %s",
                      t->name().c_str(), i,
                      t->shed() ? "marked shed" : "not registered");
        violations.emplace_back(buf);
      }
    }
    if (sum != vr.reserved) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %zu reserved %lld ppb != sum of pinned effective bandwidths %lld ppb",
                    i, static_cast<long long>(vr.reserved.ppb()),
                    static_cast<long long>(sum.ppb()));
      violations.emplace_back(buf);
    }
    if (vr.reserved > vr.capacity) {
      std::snprintf(buf, sizeof(buf), "vcpu %zu reserved %lld ppb exceeds capacity %lld ppb",
                    i, static_cast<long long>(vr.reserved.ppb()),
                    static_cast<long long>(vr.capacity.ppb()));
      violations.emplace_back(buf);
    }
  }
  for (const Task* t : shed_) {
    if (!t->shed() || !t->registered() || t->vcpu_index() != -1 || t->HasPendingJob()) {
      std::snprintf(buf, sizeof(buf),
                    "shed task %s inconsistent (shed=%d registered=%d vcpu=%d jobs=%zu)",
                    t->name().c_str(), t->shed() ? 1 : 0, t->registered() ? 1 : 0,
                    t->vcpu_index(), t->QueuedJobs());
      violations.emplace_back(buf);
    }
  }
  return violations;
}

}  // namespace rtvirt
