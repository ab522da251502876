#include "src/hv/machine.h"

#include <cassert>
#include <utility>

#include "src/common/check.h"

namespace rtvirt {

Machine::Machine(Simulator* sim, MachineConfig config) : sim_(sim), config_(config) {
  assert(config_.num_pcpus > 0);
  pcpus_.reserve(config_.num_pcpus);
  for (int i = 0; i < config_.num_pcpus; ++i) {
    pcpus_.push_back(std::make_unique<Pcpu>(this, i));
  }
}

Machine::~Machine() = default;

void Machine::SetScheduler(std::unique_ptr<HostScheduler> scheduler) {
  assert(scheduler_ == nullptr && scheduler != nullptr);
  scheduler_ = std::move(scheduler);
  scheduler_->Attach(this);
}

Vm* Machine::AddVm(std::string name) {
  vms_.push_back(std::make_unique<Vm>(this, static_cast<int>(vms_.size()), std::move(name)));
  return vms_.back().get();
}

Vcpu* Machine::RegisterVcpu(Vm* vm, int index) {
  auto vcpu = std::make_unique<Vcpu>(vm, index, static_cast<int>(vcpus_by_global_id_.size()));
  Vcpu* raw = vcpu.get();
  vcpus_by_global_id_.push_back(raw);
  runnable_.resize((vcpus_by_global_id_.size() + 63) / 64);
  vm->vcpus_.push_back(std::move(vcpu));
  assert(scheduler_ != nullptr && "install the host scheduler before adding VCPUs");
  scheduler_->VcpuInserted(raw);
  return raw;
}

void Machine::Start() {
  assert(!started_ && scheduler_ != nullptr);
  started_ = true;
  for (auto& p : pcpus_) {
    p->RequestReschedule();
  }
}

int64_t Machine::Hypercall(Vcpu* caller, const HypercallArgs& args) {
  ++overhead_.hypercalls;
  overhead_.hypercall_time += config_.hypercall_cost;
  if (caller != nullptr && caller->vm()->crashed()) {
    // The caller VM died mid-call: the request never reaches the scheduler.
    return kHypercallAgain;
  }
  if (hypercall_interceptor_) {
    HypercallFault fault = hypercall_interceptor_(caller, args);
    overhead_.hypercall_time += fault.extra_latency;
    if (fault.action != HypercallFault::Action::kNone) {
      return kHypercallAgain;
    }
  }
  return scheduler_->Hypercall(caller, args);
}

void Machine::SetPcpuOnline(int pcpu, bool online) {
  Pcpu* p = pcpus_[pcpu].get();
  if (p->online_ == online) {
    return;
  }
  if (!online) {
    // Mark dead first: any reschedule the revocation callbacks request on
    // this core collapses into a no-op instead of re-dispatching onto it.
    p->online_ = false;
    Vcpu* evacuated = p->current();
    p->StopCurrent();
    if (evacuated != nullptr) {
      ++stats_.pcpu_evacuations;
      ++evacuated->evacuations_;
      evacuated->evacuation_penalty_ += config_.evacuation_penalty;
    }
    if (scheduler_ != nullptr) {
      scheduler_->PcpuCapacityChanged(p);
    }
    // The evacuated (and any planned-but-stranded) VCPUs need a new home;
    // physically this is the offline IPI every survivor observes.
    for (auto& q : pcpus_) {
      if (q->online_) {
        q->RequestReschedule();
      }
    }
    return;
  }
  p->online_ = true;
  if (scheduler_ != nullptr) {
    scheduler_->PcpuCapacityChanged(p);
  }
  p->RequestReschedule();
}

void Machine::SetPcpuSpeed(int pcpu, double speed) {
  // Checked before the conversion: a core left at 0 ppb would divide by zero
  // in every grant's work-to-wall conversion.
  double rounded = speed * static_cast<double>(Bandwidth::kUnit) + 0.5;
  RTVIRT_CHECK(rounded >= 1.0 && rounded < static_cast<double>(Bandwidth::kUnit) + 1.0,
               "SetPcpuSpeed: pcpu %d speed %g does not round to [1, %lld] ppb", pcpu, speed,
               static_cast<long long>(Bandwidth::kUnit));
  Pcpu* p = pcpus_[pcpu].get();
  int64_t ppb = static_cast<int64_t>(rounded);
  if (ppb == p->speed_ppb_) {
    return;
  }
  // Revoke before switching so every grant executes at one constant speed —
  // the guest banks its progress at the rate the work actually ran at.
  p->StopCurrent();
  p->speed_ppb_ = ppb;
  if (scheduler_ != nullptr) {
    scheduler_->PcpuCapacityChanged(p);
  }
  if (p->online_) {
    p->RequestReschedule();
  }
}

Bandwidth Machine::EffectiveCapacity() const {
  int64_t ppb = 0;
  for (const auto& p : pcpus_) {
    if (p->online_) {
      ppb += p->speed_ppb_;
    }
  }
  return Bandwidth::FromPpb(ppb);
}

int Machine::num_online_pcpus() const {
  int n = 0;
  for (const auto& p : pcpus_) {
    n += p->online_ ? 1 : 0;
  }
  return n;
}

void Machine::CrashVm(Vm* vm) {
  if (vm->crashed_) {
    return;
  }
  vm->crashed_ = true;
  for (auto& v : vm->vcpus_) {
    v->Block();
  }
}

void Machine::RestartVm(Vm* vm) { vm->crashed_ = false; }

void Machine::NotifyWake(Vcpu* vcpu) { scheduler_->VcpuWake(vcpu); }

void Machine::NotifyBlock(Vcpu* vcpu) { scheduler_->VcpuBlock(vcpu); }

Vcpu* Machine::VcpuByGlobalId(int global_id) const {
  return global_id >= 0 && global_id < static_cast<int>(vcpus_by_global_id_.size())
             ? vcpus_by_global_id_[global_id]
             : nullptr;
}

void Machine::OnEvent(uint32_t kind, uint64_t payload) { pcpus_[payload]->OnEvent(kind); }

template <typename Self, typename Io>
void Machine::ScalarFields(Self& self, Io& io) {
  auto& o = self.overhead_;
  ckpt::Fields(io, o.schedule_calls, o.schedule_time, o.context_switches, o.context_switch_time,
               o.migrations, o.migration_time, o.hypercalls, o.hypercall_time,
               self.stats_.pcpu_evacuations);
}

template <typename P, typename Id, typename Io>
void Machine::PcpuFields(P& p, Id&& current, Io& io) {
  ckpt::Fields(io, p.online_, p.speed_ppb_, current, p.granted_, p.granted_at_,
               p.resched_pending_, p.run_until_);
}

template <typename V, typename Io>
void Machine::VmFields(V& vm, Io& io) {
  ckpt::Fields(io, vm.crashed_, vm.weight_);
}

template <typename V, typename Id, typename Io>
void Machine::VcpuFields(V& v, Id&& last_pcpu, Io& io) {
  ckpt::Fields(io, ckpt::As<uint8_t>(v.state_), last_pcpu, v.total_runtime_, v.migrations_,
               v.evacuations_, v.evacuation_penalty_);
}

void Machine::SaveState(ckpt::Writer& w) const {
  ScalarFields(*this, w);
  w.U32(static_cast<uint32_t>(vcpus_by_global_id_.size()));
  w.U32(static_cast<uint32_t>(pcpus_.size()));
  for (const auto& p : pcpus_) {
    PcpuFields(*p, p->current_ != nullptr ? p->current_->global_id() : -1, w);
  }
  auto id_of = [](const Pcpu* p) { return p != nullptr ? p->id() : -1; };
  w.U32(static_cast<uint32_t>(vms_.size()));
  for (const auto& vm : vms_) {
    w.Str(vm->name_);
    VmFields(*vm, w);
    w.U32(static_cast<uint32_t>(vm->vcpus_.size()));
    for (const auto& v : vm->vcpus_) {
      VcpuFields(*v, id_of(v->last_pcpu_), w);
    }
    vm->shared_page_.SaveState(w);
  }
}

std::string Machine::RestoreState(ckpt::Reader& r) {
  ScalarFields(*this, r);
  uint32_t global_ids = r.U32();
  if (global_ids != vcpus_by_global_id_.size()) {
    return "machine: VCPU count mismatch (checkpoint has " +
           std::to_string(global_ids) + " global ids, this machine has " +
           std::to_string(vcpus_by_global_id_.size()) + ")";
  }
  uint32_t num_pcpus = r.U32();
  if (!r.ok() || num_pcpus != pcpus_.size()) {
    return "machine: PCPU count mismatch (checkpoint has " +
           std::to_string(num_pcpus) + ", this machine has " +
           std::to_string(pcpus_.size()) + ")";
  }
  for (auto& p : pcpus_) {
    int current_id = -1;
    PcpuFields(*p, current_id, r);
    if (p->speed_ppb_ < 1 || p->speed_ppb_ > Bandwidth::kUnit) {
      return "machine: pcpu " + std::to_string(p->id()) + " speed " +
             std::to_string(p->speed_ppb_) + " ppb outside [1, " +
             std::to_string(Bandwidth::kUnit) + "]";
    }
    p->current_ = current_id < 0 ? nullptr : VcpuByGlobalId(current_id);
    if (current_id >= 0 && p->current_ == nullptr) {
      return "machine: pcpu " + std::to_string(p->id()) +
             " references unknown VCPU global id " + std::to_string(current_id);
    }
  }
  uint32_t num_vms = r.U32();
  if (!r.ok() || num_vms != vms_.size()) {
    return "machine: VM count mismatch (checkpoint has " +
           std::to_string(num_vms) + ", this machine has " +
           std::to_string(vms_.size()) + ")";
  }
  for (auto& vm : vms_) {
    std::string name = r.Str();
    if (name != vm->name_) {
      return "machine: VM " + std::to_string(vm->id()) + " name mismatch (got '" +
             name + "', this machine has '" + vm->name_ + "')";
    }
    VmFields(*vm, r);
    uint32_t num_vcpus = r.U32();
    if (!r.ok() || num_vcpus != vm->vcpus_.size()) {
      return "machine: VM '" + vm->name_ + "' VCPU count mismatch";
    }
    for (auto& v : vm->vcpus_) {
      int last_id = -1;
      VcpuFields(*v, last_id, r);
      if (static_cast<int>(v->state_) > static_cast<int>(VcpuState::kRunning)) {
        return "machine: VCPU " + v->name() + " has invalid state " +
               std::to_string(static_cast<int>(v->state_));
      }
      if (last_id >= static_cast<int>(pcpus_.size())) {
        return "machine: VCPU " + v->name() + " references invalid PCPU";
      }
      v->last_pcpu_ = last_id < 0 ? nullptr : pcpus_[last_id].get();
    }
    std::string err = vm->shared_page_.RestoreState(r);
    if (!err.empty()) {
      return "machine: VM '" + vm->name_ + "' " + err;
    }
  }
  if (!r.ok()) {
    return "machine: truncated section";
  }
  // The image saves each dispatch once, as a PCPU's current VCPU; the
  // VCPU's PCPU derives from it. A VCPU runs on one PCPU and is running
  // exactly when a PCPU runs it.
  for (Vcpu* v : vcpus_by_global_id_) {
    v->pcpu_ = nullptr;
  }
  for (const auto& p : pcpus_) {
    Vcpu* v = p->current_;
    if (v == nullptr) {
      continue;
    }
    if (v->pcpu_ != nullptr) {
      return "machine: VCPU " + v->name() + " runs on pcpu " + std::to_string(v->pcpu_->id()) +
             " and pcpu " + std::to_string(p->id());
    }
    if (v->state_ != VcpuState::kRunning) {
      return "machine: pcpu " + std::to_string(p->id()) + " runs VCPU " + v->name() +
             ", which is not running";
    }
    v->pcpu_ = p.get();
  }
  for (Vcpu* v : vcpus_by_global_id_) {
    if (v->state_ == VcpuState::kRunning && v->pcpu_ == nullptr) {
      return "machine: VCPU " + v->name() + " is running but no pcpu runs it";
    }
    SetVcpuState(v, v->state_);  // Rebuilds the runnable index.
  }
  // The checkpoint was taken from a started machine; suppress the fresh
  // Start() kick (the rebound events carry the live schedule).
  started_ = true;
  return "";
}

std::string Machine::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if (payload >= pcpus_.size()) {
    return "machine: event references invalid pcpu " + std::to_string(payload);
  }
  if (kind < kEvResched || kind > kEvGrant) {
    return "machine: unknown event kind " + std::to_string(kind);
  }
  pcpus_[payload]->Arm(kind, when);
  return "";
}

}  // namespace rtvirt
