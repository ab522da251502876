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
    Arm(kEvPressure, 0, sim()->Now() + kPressurePoll);
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

TimeNs GuestOs::NextEarliestDeadline(int vcpu_index) const {
  return EarliestDeadline(global_edf() ? global_rtas_ : vcpus_[vcpu_index].rtas);
}

TimeNs GuestOs::EarliestDeadline(const std::vector<Task*>& rtas) const {
  TimeNs now = sim()->Now();
  TimeNs d = kTimeNever;
  for (const Task* t : rtas) {
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

bool GuestOs::RunningElsewhere(const Task* task, const VcpuRun& except) const {
  for (const auto& vr : vcpus_) {
    if (&vr != &except && vr.running == task) {
      return true;
    }
  }
  return false;
}

Task* GuestOs::PickTask(VcpuRun& vr) {
  // A pinned RTA (pEDF) runs on its own VCPU only; an unpinned one (gEDF)
  // may be running on a sibling.
  Task* best = nullptr;
  for (Task* t : global_edf() ? global_rtas_ : vr.rtas) {
    if (t->HasPendingJob() && (!global_edf() || !RunningElsewhere(t, vr)) &&
        (best == nullptr || t->FrontJob().deadline < best->FrontJob().deadline)) {
      best = t;
    }
  }
  if (best != nullptr) {
    return best;
  }
  // No time-sensitive work: round-robin over background tasks not already
  // running on a sibling VCPU.
  for (size_t i = 0; i < background_.size(); ++i) {
    Task* bg = background_[(bg_cursor_ + i) % background_.size()];
    if (!RunningElsewhere(bg, vr)) {
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

void GuestOs::PublishGlobalDeadline() {
  // gEDF cannot attribute deadlines to VCPUs (any VCPU may run any task), so
  // every VCPU publishes the global earliest — one of the sources of
  // cross-layer complexity the paper cites for preferring pEDF.
  TimeNs d = EarliestDeadline(global_rtas_);
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

Bandwidth GuestOs::Reserved(const VcpuRun& vr) {
  Bandwidth sum;
  for (const Task* t : vr.rtas) {
    // Effective = compressed bandwidth when overload control squeezed the
    // task; identical to params().bandwidth() otherwise.
    sum += t->EffectiveBandwidth();
  }
  return sum;
}

void GuestOs::Shrink(VcpuRun& vr, int64_t reason) {
  cross_layer_->ReleaseBandwidth(vr.vcpu, Reserved(vr), MinPeriod(vr.rtas), reason);
  PublishDeadline(vr);
  Redispatch(vr);
}

Bandwidth GuestOs::GlobalTotal() const {
  Bandwidth total;
  for (const Task* t : global_rtas_) {
    total += t->params().bandwidth();
  }
  return total;
}

TimeNs GuestOs::MinPeriod(const std::vector<Task*>& rtas, TimeNs period, const Task* except) {
  for (const Task* t : rtas) {
    if (t != except) {
      period = std::min(period, t->params().period);
    }
  }
  return period;
}

int GuestOs::FindFirstFit(Bandwidth bw, int exclude_index) const {
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (static_cast<int>(i) == exclude_index) {
      continue;
    }
    if (Reserved(vcpus_[i]) + bw <= vcpus_[i].capacity) {
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
  PublishDeadline(vr);
}

void GuestOs::UnpinTask(Task* task) {
  VcpuRun& vr = vcpus_[task->vcpu_index()];
  if (vr.running == task) {
    SuspendRunning(vr);
  }
  vr.rtas.erase(std::remove(vr.rtas.begin(), vr.rtas.end(), task), vr.rtas.end());
  task->vcpu_index_ = -1;
}

int64_t GuestOs::RequestGlobalShares(Bandwidth total, TimeNs min_period) {
  // Every VCPU carries an equal share (rounded up) of the total bandwidth.
  int n = static_cast<int>(vcpus_.size());
  auto share_of = [n](Bandwidth bw) { return Bandwidth::FromPpb((bw.ppb() + n - 1) / n); };
  for (int i = 0; i < n; ++i) {
    int64_t rc = cross_layer_->RequestBandwidth(vcpus_[i].vcpu, share_of(total), min_period);
    if (rc != kHypercallOk) {
      Bandwidth old_share = share_of(GlobalTotal());
      for (int j = 0; j < i; ++j) {  // Roll back to the registered set's shares.
        cross_layer_->RequestBandwidth(vcpus_[j].vcpu, old_share, MinPeriod(global_rtas_));
      }
      return rc;
    }
  }
  return kHypercallOk;
}

int GuestOs::SchedSetAttrGlobal(Task* task, const RtaParams& params) {
  Bandwidth nbw = params.bandwidth();
  Bandwidth old = task->registered() ? task->params().bandwidth() : Bandwidth::Zero();
  Bandwidth new_total = GlobalTotal() - old + nbw;
  Bandwidth capacity;
  for (const auto& vr : vcpus_) {
    capacity += vr.capacity;
  }
  if (new_total > capacity) {
    return kGuestErrBusy;
  }
  TimeNs new_min_period = MinPeriod(global_rtas_, params.period, task);
  if (RequestGlobalShares(new_total, new_min_period) != kHypercallOk) {
    return kGuestErrBusy;
  }
  if (!task->registered()) {
    global_rtas_.push_back(task);
  }
  task->params_ = params;
  task->registered_ = true;
  task->vcpu_index_ = -1;  // Unpinned: any VCPU may run it.
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
  RequestGlobalShares(GlobalTotal(), MinPeriod(global_rtas_));
  PublishGlobalDeadline();
  return kGuestOk;
}

int GuestOs::SchedSetAttr(Task* task, const RtaParams& params, int64_t bw_reason) {
  if (!task->is_rta() || !params.Valid()) {
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
    // Changing the parameters of a shed task re-admits it from scratch:
    // forget it and fall into registration.
    ForgetShed(task);
  }

  if (!task->registered()) {
    // Admission (section 3.2): first fit, else a reshuffle, else a hotplugged
    // VCPU, and the INC_BW before the RTA is pinned. Under overload control a
    // miss, local or at the host, takes one degradation step of
    // strictly-lower-criticality reservations and tries again; each step
    // compresses or sheds something, so the loop terminates.
    bool degraded = false;
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
      int64_t rc = kHypercallNoBandwidth;  // A local miss lacks bandwidth too.
      if (idx >= 0) {
        VcpuRun& vr = vcpus_[idx];
        rc = cross_layer_->RequestBandwidth(vr.vcpu, Reserved(vr) + nbw,
                                            MinPeriod(vr.rtas, params.period),
                                            kBwReasonAdmission);
        if (rc == kHypercallOk) {
          if (degraded) {
            ++overload_stats_.overload_admissions;
          }
          PinTask(task, idx, params);
          Redispatch(vr);
          return kGuestOk;
        }
      }
      if (rc != kHypercallNoBandwidth || !config_.overload.enabled ||
          !DegradeStepFor(params.criticality)) {
        return kGuestErrBusy;
      }
      degraded = true;
    }
  }

  // Parameter change for an already-registered RTA. The new parameters are a
  // new contract: any overload compression of the old ones is forgotten.
  VcpuRun& cur = vcpus_[task->vcpu_index()];
  Bandwidth obw = task->EffectiveBandwidth();
  Bandwidth cur_bw = Reserved(cur);
  Bandwidth in_place = cur_bw - obw + nbw;
  if (in_place <= cur.capacity) {
    // An increase is requested before it applies (section 3.2), with the
    // period recomputed as if the task already had the new parameters.
    bool grows = nbw > obw;
    if (grows && cross_layer_->RequestBandwidth(cur.vcpu, in_place,
                                                MinPeriod(cur.rtas, params.period, task),
                                                bw_reason) != kHypercallOk) {
      return kGuestErrBusy;
    }
    task->params_ = params;
    task->compressed_slice_ = 0;
    if (grows) {
      PublishDeadline(cur);
      Redispatch(cur);
    } else {
      Shrink(cur, bw_reason);
    }
    return kGuestOk;
  }

  // Must move to a different VCPU: INC_DEC_BW (section 3.2, case 2).
  int idx = FindFirstFit(nbw, task->vcpu_index());
  if (idx < 0) {
    return kGuestErrBusy;
  }
  VcpuRun& to = vcpus_[idx];
  int64_t rc = cross_layer_->MoveBandwidth(
      to.vcpu, Reserved(to) + nbw, MinPeriod(to.rtas, params.period), cur.vcpu,
      cur_bw - obw, MinPeriod(cur.rtas, kTimeNever, task));
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
    ForgetShed(task);
    return kGuestOk;
  }
  VcpuRun& vr = vcpus_[task->vcpu_index()];
  UnpinTask(task);
  task->registered_ = false;
  task->jobs_.clear();
  Shrink(vr, kBwReasonNone);
  return kGuestOk;
}

void GuestOs::ResetAfterCrash() {
  for (auto& vr : vcpus_) {
    sim()->Cancel(vr.completion_event);
    vr.completion_event = Simulator::EventId();
    vr.running = nullptr;
    vr.on_cpu = false;
    vr.rtas.clear();
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
  std::vector<TimeNs> new_period(vcpus_.size());
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    for (const Task* t : assign[i]) {
      new_bw[i] += t->EffectiveBandwidth();
    }
    new_period[i] = MinPeriod(assign[i]);
  }

  // Hypercall order: decreases first, then increases, so the host's total
  // never transiently exceeds what it already admitted.
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (new_bw[i] < Reserved(vcpus_[i])) {
      cross_layer_->ReleaseBandwidth(vcpus_[i].vcpu, new_bw[i], new_period[i]);
    }
  }
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (new_bw[i] > Reserved(vcpus_[i]) &&
        cross_layer_->RequestBandwidth(vcpus_[i].vcpu, new_bw[i], new_period[i]) !=
            kHypercallOk) {
      // The host has room, but the channel may still refuse (a degraded
      // VCPU's local check, an injected failure, the trust rate limit). No
      // task has moved, so each pin set still derives the reservation to go
      // back to: shrink the increases granted so far, then restore the
      // decreases.
      for (size_t j = 0; j < i; ++j) {
        const VcpuRun& vr = vcpus_[j];
        if (new_bw[j] > Reserved(vr)) {
          cross_layer_->ReleaseBandwidth(vr.vcpu, Reserved(vr), MinPeriod(vr.rtas));
        }
      }
      for (size_t j = 0; j < vcpus_.size(); ++j) {
        const VcpuRun& vr = vcpus_[j];
        if (new_bw[j] < Reserved(vr)) {
          cross_layer_->RequestBandwidth(vr.vcpu, Reserved(vr), MinPeriod(vr.rtas));
        }
      }
      return -1;
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
    PublishDeadline(vcpus_[i]);
    Redispatch(vcpus_[i]);
  }
  return target;
}

template <typename Self, typename Io>
void GuestOs::ScalarFields(Self& self, Io& io) {
  auto& s = self.overload_stats_;
  ckpt::Fields(io, self.bg_cursor_, self.pressure_ticks_under_, self.pressure_clear_ticks_,
               s.compressions, s.expansions, s.sheds, s.resumes, s.shed_job_drops,
               s.overload_admissions);
}

template <typename T, typename Io>
void GuestOs::TaskFields(T& t, Io& io) {
  auto& p = t.params_;
  ckpt::Fields(io, p.slice, p.period, p.sporadic, ckpt::As<uint8_t>(p.criticality), p.min_slice,
               t.registered_, t.shed_, t.compressed_slice_, t.next_release_, t.jobs_completed_);
}

namespace {

// Guest section records, each in byte order; save and restore share them.
template <typename J, typename Io>
void JobFields(J& j, Io& io) {
  ckpt::Fields(io, j.release, j.deadline, j.work, j.remaining);
}

// `running` is the index of the running task, -1 for none.
template <typename Run, typename Running, typename Io>
void VcpuRunFields(Run& vr, Running&& running, Io& io) {
  ckpt::Fields(io, vr.capacity, vr.on_cpu, running, vr.run_start, vr.run_speed_ppb);
}

}  // namespace

// The pin sets are the one record of where a task runs. Restore rebuilds
// each task's VCPU index from them; the reservations and the gEDF total are
// computed from the pin sets and the gEDF list whenever they are read.
void GuestOs::SaveState(ckpt::Writer& w) const {
  ScalarFields(*this, w);

  // Tasks are created by the experiment builder in a fixed order; the restore
  // target has the same tasks_ vector, so indices are stable identifiers.
  auto index_of = [this](const Task* t) -> uint32_t {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].get() == t) {
        return static_cast<uint32_t>(i);
      }
    }
    return static_cast<uint32_t>(-1);  // Also for nullptr: no task.
  };
  w.U32(static_cast<uint32_t>(tasks_.size()));
  for (const auto& t : tasks_) {
    w.Str(t->name_);
    w.U8(static_cast<uint8_t>(t->kind_));
    TaskFields(*t, w);
    w.U32(static_cast<uint32_t>(t->jobs_.size()));
    for (const Job& j : t->jobs_) {
      JobFields(j, w);
    }
  }

  w.U32(static_cast<uint32_t>(vcpus_.size()));
  for (const auto& vr : vcpus_) {
    w.U32(static_cast<uint32_t>(vr.rtas.size()));
    for (const Task* t : vr.rtas) {
      w.U32(index_of(t));
    }
    VcpuRunFields(vr, index_of(vr.running), w);
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
  ScalarFields(*this, r);

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
    TaskFields(*t, r);
    t->jobs_.clear();
    uint32_t n_jobs = r.U32();
    for (uint32_t k = 0; k < n_jobs && r.ok(); ++k) {
      JobFields(t->jobs_.emplace_back(), r);
    }
    t->vcpu_index_ = -1;  // Set from the pin sets below.
    // A registered (or shed) task's parameters divide into bandwidths and
    // budgets, so they must be ones SchedSetAttr admits; an unregistered
    // task may still hold its zero defaults.
    const RtaParams& p = t->params_;
    if ((t->registered_ || t->shed_) && !p.Valid()) {
      return ckpt_section_ + ": task '" + t->name_ + "' has invalid parameters (slice " +
             std::to_string(p.slice) + ", period " + std::to_string(p.period) +
             ", min_slice " + std::to_string(p.min_slice) + ", criticality " +
             std::to_string(static_cast<int>(p.criticality)) + ")";
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
      if (t->vcpu_index_ >= 0) {
        return ckpt_section_ + ": task '" + t->name_ + "' is in the pin sets of vcpu " +
               std::to_string(t->vcpu_index_) + " and vcpu " + std::to_string(i);
      }
      if (!t->registered_ || t->shed_) {
        return ckpt_section_ + ": task '" + t->name_ + "' is in the pin set of vcpu " +
               std::to_string(i) + " but " + (t->shed_ ? "marked shed" : "not registered");
      }
      t->vcpu_index_ = static_cast<int>(i);
      vr.rtas.push_back(t);
    }
    uint32_t running = 0;
    VcpuRunFields(vr, running, r);
    vr.running = running == static_cast<uint32_t>(-1) ? nullptr : task_at(running);
    if (running != static_cast<uint32_t>(-1) && vr.running == nullptr) {
      return ckpt_section_ + ": vcpu " + std::to_string(i) +
             " running references unknown task";
    }
    if (vr.run_speed_ppb < 1 || vr.run_speed_ppb > Bandwidth::kUnit) {
      return ckpt_section_ + ": vcpu " + std::to_string(i) + " run speed " +
             std::to_string(vr.run_speed_ppb) + " ppb outside [1, " +
             std::to_string(Bandwidth::kUnit) + "]";
    }
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
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    const VcpuRun& vr = vcpus_[i];
    for (const Task* t : vr.rtas) {
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
    Bandwidth reserved = Reserved(vr);
    if (reserved > vr.capacity) {
      std::snprintf(buf, sizeof(buf), "vcpu %zu reserved %lld ppb exceeds capacity %lld ppb",
                    i, static_cast<long long>(reserved.ppb()),
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
