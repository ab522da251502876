// Host-level EDF scheduling of server VCPUs.
//
// Each configured VCPU is a deferrable server with a (budget, period)
// interface: the budget replenishes at every period boundary, the server's
// EDF deadline is the end of its current period, and an idle server retains
// its budget until the next replenishment. Runnable servers with budget are
// scheduled globally by earliest deadline (gEDF), migrating freely between
// PCPUs — this is RT-Xen 2.0's best configuration (gEDF host + deferrable
// server) and, with interfaces taken directly from workload parameters, the
// traditional VMM-level EDF of the paper's Figure 1 motivational example.
// There is no cross-layer awareness: hypercalls are rejected.

#ifndef SRC_BASELINES_SERVER_EDF_H_
#define SRC_BASELINES_SERVER_EDF_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct ServerParams {
  TimeNs budget = 0;
  TimeNs period = 0;
};

struct ServerEdfConfig {
  // Virtual cost of one PickNext: a sorted-runqueue gEDF pick.
  TimeNs pick_cost = 900;  // ns
  // Quantum-driven mode (RT-Xen 2.0 as evaluated by the paper; 0 = the
  // event-driven "new experimental version" of section 4.5). When set,
  // budget enforcement happens only at quantum boundaries — a server can
  // overrun its budget by up to a quantum (repaid at replenishment, which
  // caps the stored budget at Θ) — and every PCPU re-invokes schedule()
  // each quantum, inflating the schedule() call count.
  TimeNs quantum = 0;
};

class ServerEdfScheduler : public HostScheduler, public EventTarget {
 public:
  explicit ServerEdfScheduler(ServerEdfConfig config = {});

  // Configures (or reconfigures) a VCPU's server interface. The first period
  // starts at the current simulation time. A VCPU on another machine, or
  // params outside 0 < budget <= period, is fatal.
  void SetServer(Vcpu* vcpu, ServerParams params);

  std::string_view name() const override { return "server-gedf"; }
  void Attach(Machine* machine) override;
  void VcpuInserted(Vcpu* vcpu) override;
  void VcpuWake(Vcpu* vcpu) override;
  ScheduleDecision PickNext(Pcpu* pcpu) override;
  void AccountRun(Vcpu* vcpu, TimeNs ran) override;
  TimeNs ScheduleCost(const Pcpu* pcpu) const override;
  void OnEvent(uint32_t kind, uint64_t payload) override;

 private:
  enum EventKind : uint32_t {
    kEvQuantum = 1,    // Payload = pcpu id.
    kEvReplenish = 2,  // Payload = server VCPU's global id.
  };
  struct Server {
    Vcpu* vcpu = nullptr;
    ServerParams params;  // Budget 0 until SetServer: a best-effort VCPU.
    TimeNs budget = 0;    // Remaining budget in the current period.
    TimeNs deadline = 0;  // End of the current period (EDF key).
    Simulator::EventId replenish_event;
  };

  void Replenish(Server& s);
  // Preempt the PCPU running the lowest-priority work if `vcpu` beats it.
  void TickleFor(Vcpu* vcpu);
  Vcpu* PickBestEffort(Pcpu* pcpu);

  ServerEdfConfig config_;
  // Indexed by Vcpu::global_id(), which the machine hands out densely in
  // VcpuInserted order; also the EDF tie-break and round-robin order.
  std::vector<Server> servers_;
  std::vector<Simulator::EventId> quantum_ticks_;
  size_t be_cursor_ = 0;
  int tickle_cursor_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_BASELINES_SERVER_EDF_H_
