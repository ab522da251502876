// Virtual CPU: the schedulable entity at the host level.

#ifndef SRC_HV_VCPU_H_
#define SRC_HV_VCPU_H_

#include <cstdint>
#include <string>

#include "src/common/time.h"

namespace rtvirt {

class Machine;
class Pcpu;
class Vcpu;
class Vm;

enum class VcpuState {
  kBlocked,   // No runnable work in the guest.
  kRunnable,  // Has work, waiting for a PCPU.
  kRunning,   // Currently holds a PCPU.
};

// Implemented by the guest OS model: notified when its VCPU gains or loses a
// physical CPU so it can dispatch or suspend guest tasks.
class VcpuClient {
 public:
  virtual ~VcpuClient() = default;
  // The VCPU starts executing guest code now (overheads already elapsed).
  virtual void OnVcpuGranted(Vcpu* vcpu) = 0;
  // The VCPU stops executing guest code now.
  virtual void OnVcpuRevoked(Vcpu* vcpu) = 0;
};

class Vcpu {
 public:
  Vcpu(Vm* vm, int index, int global_id);
  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  Vm* vm() const { return vm_; }
  int index() const { return index_; }  // Index within the VM.
  int global_id() const { return global_id_; }
  const std::string& name() const { return name_; }

  VcpuState state() const { return state_; }
  bool running() const { return state_ == VcpuState::kRunning; }
  bool runnable() const { return state_ == VcpuState::kRunnable; }
  bool blocked() const { return state_ == VcpuState::kBlocked; }

  Pcpu* pcpu() const { return pcpu_; }           // Non-null iff running.
  Pcpu* last_pcpu() const { return last_pcpu_; }  // For migration detection.

  void set_client(VcpuClient* client) { client_ = client; }
  VcpuClient* client() const { return client_; }

  // Guest-side state transitions. Wake() is a no-op unless blocked; Block()
  // is a no-op if already blocked. Both route through the host scheduler.
  void Wake();
  void Block();

  // Cumulative guest execution time (excludes scheduling overheads),
  // including the still-running dispatch, if any.
  TimeNs total_runtime() const;
  uint64_t migrations() const { return migrations_; }

  // Fault model: times this VCPU was forcibly removed from a PCPU that went
  // offline under it (Machine::SetPcpuOnline), and the one-shot penalty still
  // owed on its next dispatch (charged then cleared by the dispatcher).
  uint64_t evacuations() const { return evacuations_; }
  TimeNs pending_evacuation_penalty() const { return evacuation_penalty_; }

 private:
  friend class Pcpu;
  friend class Machine;

  Vm* vm_;
  int index_;
  int global_id_;
  std::string name_;
  VcpuState state_ = VcpuState::kBlocked;
  Pcpu* pcpu_ = nullptr;
  Pcpu* last_pcpu_ = nullptr;
  VcpuClient* client_ = nullptr;
  TimeNs total_runtime_ = 0;
  uint64_t migrations_ = 0;
  uint64_t evacuations_ = 0;
  TimeNs evacuation_penalty_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_HV_VCPU_H_
