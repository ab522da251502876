// Xen's default Credit scheduler (proportional share), the non-real-time
// baseline of the paper's section 4.4 experiments.
//
// Model: every accounting period (the "timeslice"), each VCPU earns credits
// proportional to its VM's weight and pays for the CPU time it consumed.
// VCPUs with positive credits run at UNDER priority, exhausted ones at OVER.
// A VCPU waking from idle is boosted (BOOST) ahead of UNDER/OVER work until
// it has consumed a tick's worth of CPU — this is why Credit serves an idle
// latency-sensitive VM quickly on average while providing no tail guarantee.
// The ratelimit prevents preemption of a VCPU that has run for less than the
// configured minimum. A periodic accounting tick charges interference on
// every PCPU (Credit is quantum-driven, unlike the event-driven RT
// schedulers), which is the source of its longer dedicated-CPU tail
// (Table 4).

#ifndef SRC_BASELINES_CREDIT_H_
#define SRC_BASELINES_CREDIT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct CreditConfig {
  // Accounting period and round-robin quantum (Xen default 30 ms; the paper
  // sets it to 1 ms for the memcached experiments).
  TimeNs timeslice = Ms(30);
  // Minimum uninterrupted run before a preemption is honored.
  TimeNs ratelimit = Us(500);
  // Periodic scheduler tick per PCPU and its interference cost.
  TimeNs tick_period = Ms(10);
  TimeNs tick_cost = Us(40);
  TimeNs pick_cost = 500;  // ns
  // Wake->dispatch path cost (softirq + timer reprogram + runqueue ops),
  // calibrated from the paper's Table 4 dedicated-CPU Credit percentiles.
  TimeNs dispatch_cost = Us(60);
};

class CreditScheduler : public HostScheduler, public EventTarget {
 public:
  explicit CreditScheduler(CreditConfig config = {});

  // Xen Credit "cap": an upper bound on the CPU a VCPU may consume per
  // accounting window, even when the host is idle (0 = uncapped). The paper
  // uses caps to bound each VM to its allocated bandwidth in Figure 5b.
  void SetCap(Vcpu* vcpu, Bandwidth cap);

  std::string_view name() const override { return "credit"; }
  void Attach(Machine* machine) override;
  void VcpuInserted(Vcpu* vcpu) override;
  void VcpuRemoved(Vcpu* vcpu) override;
  void VcpuWake(Vcpu* vcpu) override;
  void VcpuBlock(Vcpu* vcpu) override;
  ScheduleDecision PickNext(Pcpu* pcpu) override;
  void AccountRun(Vcpu* vcpu, TimeNs ran) override;
  TimeNs ScheduleCost(const Pcpu* pcpu) const override;
  TimeNs DispatchCost(const Vcpu* next) const override;
  void OnEvent(uint32_t kind, uint64_t payload) override;

 private:
  enum EventKind : uint32_t {
    kEvAccounting = 1,
    kEvTick = 2,  // Payload = pcpu id.
  };
  enum class Priority { kBoost = 0, kUnder = 1, kOver = 2 };

  struct CreditState {
    Vcpu* vcpu = nullptr;
    TimeNs credits = 0;      // Signed; ns of entitled CPU time.
    TimeNs consumed = 0;     // Since the last accounting.
    Priority priority = Priority::kUnder;
    TimeNs boost_ran = 0;    // CPU consumed while boosted.
    TimeNs last_run = 0;     // Round-robin key within a priority class.
    TimeNs dispatched_at = 0;  // For the ratelimit.
    Bandwidth cap;             // Zero: uncapped.
    TimeNs window_consumed = 0;  // Consumption in the current window.
    bool capped_out = false;     // Hit the cap; parked until accounting.
  };

  void Accounting();
  void Tick(int pcpu_id);
  int TotalWeight() const;

  CreditConfig config_;
  std::unordered_map<const Vcpu*, CreditState> states_;
  std::vector<Vcpu*> all_vcpus_;
  Simulator::EventId accounting_event_;
  int tickle_cursor_ = 0;
  std::vector<Simulator::EventId> tick_events_;
  bool started_ = false;
};

}  // namespace rtvirt

#endif  // SRC_BASELINES_CREDIT_H_
