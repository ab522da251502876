#include "src/hv/vcpu.h"

#include "src/hv/machine.h"
#include "src/hv/pcpu.h"
#include "src/hv/vm.h"

namespace rtvirt {

Vcpu::Vcpu(Vm* vm, int index, int global_id)
    : vm_(vm),
      index_(index),
      global_id_(global_id),
      name_(vm->name() + ".vcpu" + std::to_string(index)) {}

TimeNs Vcpu::total_runtime() const {
  TimeNs total = total_runtime_;
  if (pcpu_ != nullptr) {
    total += pcpu_->LiveRunNs(this);
  }
  return total;
}

void Vcpu::Wake() {
  if (state_ != VcpuState::kBlocked) {
    return;
  }
  if (vm_->crashed()) {
    return;  // A crashed VM executes nothing until the machine restarts it.
  }
  vm_->machine()->SetVcpuState(this, VcpuState::kRunnable);
  vm_->machine()->NotifyWake(this);
}

void Vcpu::Block() {
  if (state_ == VcpuState::kBlocked) {
    return;
  }
  Pcpu* p = pcpu_;
  if (p != nullptr) {
    p->StopCurrent();
    if (state_ == VcpuState::kBlocked) {
      // The guest already blocked us inside the revoke callback; the PCPU
      // still needs to pick new work.
      p->RequestReschedule();
      return;
    }
  }
  vm_->machine()->SetVcpuState(this, VcpuState::kBlocked);
  vm_->machine()->NotifyBlock(this);
  if (p != nullptr) {
    p->RequestReschedule();
  }
}

}  // namespace rtvirt
