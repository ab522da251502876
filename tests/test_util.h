// Shared test helpers: trivial host schedulers that isolate guest-level
// logic from host-level scheduling policy.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <vector>

#include "src/hv/machine.h"

namespace rtvirt {

// Pins VCPU k (in insertion order) to PCPU k: every VCPU effectively owns a
// dedicated processor, so guest behaviour is observable without host policy.
class DedicatedScheduler : public HostScheduler {
 public:
  std::string_view name() const override { return "dedicated-test"; }
  void VcpuInserted(Vcpu* v) override {
    slots_.push_back(v);
  }
  void VcpuWake(Vcpu* v) override {
    int slot = SlotOf(v);
    if (slot >= 0 && slot < machine_->num_pcpus()) {
      machine_->pcpu(slot)->RequestReschedule();
    }
  }
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    if (pcpu->id() < static_cast<int>(slots_.size())) {
      Vcpu* v = slots_[pcpu->id()];
      if (v != nullptr && (v->runnable() || (v->running() && v->pcpu() == pcpu))) {
        return {v, kTimeNever};
      }
    }
    return {nullptr, kTimeNever};
  }

 private:
  int SlotOf(const Vcpu* v) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == v) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::vector<Vcpu*> slots_;
};

inline MachineConfig ZeroCostMachine(int pcpus) {
  MachineConfig cfg;
  cfg.num_pcpus = pcpus;
  cfg.context_switch_cost = 0;
  cfg.migration_cost = 0;
  cfg.hypercall_cost = 0;
  return cfg;
}

}  // namespace rtvirt

#endif  // TESTS_TEST_UTIL_H_
