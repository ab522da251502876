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

void Machine::SaveState(ckpt::Writer& w) const {
  w.U64(overhead_.schedule_calls);
  w.I64(overhead_.schedule_time);
  w.U64(overhead_.context_switches);
  w.I64(overhead_.context_switch_time);
  w.U64(overhead_.migrations);
  w.I64(overhead_.migration_time);
  w.U64(overhead_.hypercalls);
  w.I64(overhead_.hypercall_time);
  w.U64(stats_.pcpu_evacuations);
  w.U32(static_cast<uint32_t>(vcpus_by_global_id_.size()));
  w.U32(static_cast<uint32_t>(pcpus_.size()));
  for (const auto& p : pcpus_) {
    w.Bool(p->online_);
    w.I64(p->speed_ppb_);
    w.U32(static_cast<uint32_t>(p->current_ != nullptr ? p->current_->global_id() : -1));
    w.Bool(p->granted_);
    w.I64(p->granted_at_);
    w.Bool(p->resched_pending_);
    w.I64(p->run_until_);
    w.I64(p->busy_time_);
  }
  w.U32(static_cast<uint32_t>(vms_.size()));
  for (const auto& vm : vms_) {
    w.Str(vm->name_);
    w.Bool(vm->crashed_);
    w.U32(static_cast<uint32_t>(vm->weight_));
    w.U32(static_cast<uint32_t>(vm->vcpus_.size()));
    for (const auto& v : vm->vcpus_) {
      w.U8(static_cast<uint8_t>(v->state_));
      w.U32(static_cast<uint32_t>(v->pcpu_ != nullptr ? v->pcpu_->id() : -1));
      w.U32(static_cast<uint32_t>(v->last_pcpu_ != nullptr ? v->last_pcpu_->id() : -1));
      w.I64(v->total_runtime_);
      w.U64(v->migrations_);
      w.U64(v->evacuations_);
      w.I64(v->evacuation_penalty_);
    }
    vm->shared_page_.SaveState(w);
  }
}

std::string Machine::RestoreState(ckpt::Reader& r) {
  overhead_.schedule_calls = r.U64();
  overhead_.schedule_time = r.I64();
  overhead_.context_switches = r.U64();
  overhead_.context_switch_time = r.I64();
  overhead_.migrations = r.U64();
  overhead_.migration_time = r.I64();
  overhead_.hypercalls = r.U64();
  overhead_.hypercall_time = r.I64();
  stats_.pcpu_evacuations = r.U64();
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
    p->online_ = r.Bool();
    p->speed_ppb_ = r.I64();
    if (p->speed_ppb_ < 1 || p->speed_ppb_ > Bandwidth::kUnit) {
      return "machine: pcpu " + std::to_string(p->id()) + " speed " +
             std::to_string(p->speed_ppb_) + " ppb outside [1, " +
             std::to_string(Bandwidth::kUnit) + "]";
    }
    int current_id = static_cast<int>(r.U32());
    p->current_ = current_id < 0 ? nullptr : VcpuByGlobalId(current_id);
    if (current_id >= 0 && p->current_ == nullptr) {
      return "machine: pcpu " + std::to_string(p->id()) +
             " references unknown VCPU global id " + std::to_string(current_id);
    }
    p->granted_ = r.Bool();
    p->granted_at_ = r.I64();
    p->resched_pending_ = r.Bool();
    p->run_until_ = r.I64();
    p->busy_time_ = r.I64();
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
    vm->crashed_ = r.Bool();
    vm->weight_ = static_cast<int>(r.U32());
    uint32_t num_vcpus = r.U32();
    if (!r.ok() || num_vcpus != vm->vcpus_.size()) {
      return "machine: VM '" + vm->name_ + "' VCPU count mismatch";
    }
    for (auto& v : vm->vcpus_) {
      uint8_t state = r.U8();
      if (state > static_cast<uint8_t>(VcpuState::kRunning)) {
        return "machine: VCPU " + v->name() + " has invalid state " +
               std::to_string(state);
      }
      v->state_ = static_cast<VcpuState>(state);
      int pcpu_id = static_cast<int>(r.U32());
      int last_id = static_cast<int>(r.U32());
      if (pcpu_id >= static_cast<int>(pcpus_.size()) ||
          last_id >= static_cast<int>(pcpus_.size())) {
        return "machine: VCPU " + v->name() + " references invalid PCPU";
      }
      v->pcpu_ = pcpu_id < 0 ? nullptr : pcpus_[pcpu_id].get();
      v->last_pcpu_ = last_id < 0 ? nullptr : pcpus_[last_id].get();
      v->total_runtime_ = r.I64();
      v->migrations_ = r.U64();
      v->evacuations_ = r.U64();
      v->evacuation_penalty_ = r.I64();
    }
    std::string err = vm->shared_page_.RestoreState(r);
    if (!err.empty()) {
      return "machine: VM '" + vm->name_ + "' " + err;
    }
  }
  // The checkpoint was taken from a started machine; suppress the fresh
  // Start() kick (the rebound events carry the live schedule).
  started_ = true;
  return r.ok() ? "" : "machine: truncated section";
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
