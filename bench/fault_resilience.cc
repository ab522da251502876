// Fault-resilience evaluation of the cross-layer channel (robustness PR):
//
// 1. Transient-fault sweep. Adaptive streaming RTAs periodically re-negotiate
//    their reservation (sched_setattr lo<->hi) while hypercalls fail
//    transiently with probability p. Three configurations per p:
//      fault-free  — p = 0 reference;
//      no-retry    — legacy channel: the first -EAGAIN surfaces to the guest,
//                    a failed upward switch leaves the task under-reserved
//                    while its demand rises (a hog VM soaks the residual
//                    best-effort time, so under-reservation means misses);
//      resilient   — bounded in-call retry + degraded-mode fallback.
//    Acceptance: at p = 10%, resilient stays within 2x the fault-free miss
//    rate (+0.5pp absolute floor) while no-retry does not.
//
// 2. Degraded-mode drill. A hard 500 ms hypercall outage (forcing retry
//    exhaustion -> degraded mode -> virtual-time repair), shared-page
//    staleness, and a VM crash/restart with the host watchdog reclaiming the
//    orphaned reservations.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/resilience.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRunLength = Sec(20);
constexpr int kPcpus = 4;
constexpr int kRtaVms = 4;
constexpr int kTasksPerVm = 2;
constexpr int kHogVcpus = 8;

// An adaptive streaming task: alternates between a low-rate and a high-rate
// profile at random scene changes, re-negotiating its reservation each time.
// Demand follows the profile regardless of whether the sched_setattr was
// admitted — exactly the situation where a transiently failed upward switch
// leaves the task under-reserved.
class AdaptiveRta {
 public:
  AdaptiveRta(Experiment* exp, GuestOs* guest, std::string name, RtaParams lo, RtaParams hi)
      : exp_(exp), guest_(guest), task_(guest->CreateTask(std::move(name))), lo_(lo), hi_(hi),
        demand_(lo) {}

  void Start(TimeNs start, TimeNs stop) {
    stop_ = stop;
    sim()->At(start, [this] { TryRegister(); });
    sim()->At(start, [this] { ReleaseOne(); });
    sim()->At(start + NextSwitchDelay(), [this] { DoSwitch(); });
  }

  // Restart handler: the reborn guest kernel re-admits the task.
  void Reregister() {
    if (!task_->registered() && sim()->Now() < stop_) {
      TryRegister();
    }
  }

  Task* task() const { return task_; }
  uint64_t failed_switches() const { return failed_switches_; }

 private:
  Simulator* sim() const { return guest_->vm()->machine()->sim(); }
  TimeNs NextSwitchDelay() { return exp_->rng().UniformTime(Ms(150), Ms(400)); }

  void TryRegister() {
    if (sim()->Now() >= stop_) {
      return;
    }
    // Registration is mandatory (the task cannot run without it), so the
    // app-level loop retries; parameter *switches* below are opportunistic.
    if (guest_->SchedSetAttr(task_, demand_) != kGuestOk) {
      sim()->After(Ms(10), [this] { TryRegister(); });
    }
  }

  void DoSwitch() {
    if (sim()->Now() >= stop_) {
      return;
    }
    demand_ = demand_.slice == lo_.slice ? hi_ : lo_;
    if (task_->registered()) {
      if (guest_->SchedSetAttr(task_, demand_) != kGuestOk) {
        ++failed_switches_;  // Keeps the old reservation; demand rose anyway.
      }
    }
    sim()->After(NextSwitchDelay(), [this] { DoSwitch(); });
  }

  void ReleaseOne() {
    TimeNs now = sim()->Now();
    if (now >= stop_) {
      if (task_->registered()) {
        guest_->SchedUnregister(task_);
      }
      return;
    }
    task_->set_next_release(now + demand_.period);
    if (task_->registered()) {
      guest_->ReleaseJob(task_, demand_.slice, now + demand_.period);
    }
    sim()->After(demand_.period, [this] { ReleaseOne(); });
  }

  Experiment* exp_;
  GuestOs* guest_;
  Task* task_;
  RtaParams lo_;
  RtaParams hi_;
  RtaParams demand_;
  TimeNs stop_ = 0;
  uint64_t failed_switches_ = 0;
};

struct Scenario {
  std::unique_ptr<Experiment> exp;
  std::vector<std::unique_ptr<AdaptiveRta>> tasks;
  DeadlineMonitor monitor;

  void Run() { exp->Run(kRunLength); }
};

enum class Mode { kNoRetry, kResilient };

ExperimentConfig BaseConfig(Mode mode) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpus);
  if (mode == Mode::kResilient) {
    cfg.channel.max_retries = 3;
    cfg.channel.degraded_fallback = true;
  }
  return cfg;
}

// 4 RTA VMs x 2 adaptive tasks (lo 2ms/10ms, hi 4ms/10ms) + a hog VM whose
// background tasks soak all best-effort residual.
Scenario BuildScenario(ExperimentConfig cfg) {
  Scenario s;
  s.exp = std::make_unique<Experiment>(std::move(cfg));
  RtaParams lo{Ms(2), Ms(10)};
  RtaParams hi{Ms(4), Ms(10)};
  for (int v = 0; v < kRtaVms; ++v) {
    GuestOs* g = s.exp->AddGuest("rta" + std::to_string(v), 1);
    for (int t = 0; t < kTasksPerVm; ++t) {
      auto rta = std::make_unique<AdaptiveRta>(
          s.exp.get(), g, "vm" + std::to_string(v) + ".t" + std::to_string(t), lo, hi);
      s.monitor.Watch(rta->task());
      rta->Start(Ms(1), kRunLength - Ms(10));
      s.tasks.push_back(std::move(rta));
    }
  }
  GuestOs* hog = s.exp->AddGuest("hog", kHogVcpus);
  for (int i = 0; i < kHogVcpus; ++i) {
    hog->CreateBackgroundTask("hog" + std::to_string(i));
  }
  return s;
}

FaultPlan SweepFaults(double fail_prob, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.hypercall_fail_prob = fail_prob;
  plan.hypercall_drop_prob = fail_prob / 4;
  plan.hypercall_spike_prob = 0.05;
  plan.hypercall_spike_latency = Us(200);
  return plan;
}

// Each returns whether its check passed.
bool TransientSweep() {
  Header("Transient hypercall faults: adaptive RTAs, miss ratio vs fault rate");
  TablePrinter table({"fail_prob", "config", "miss_ratio", "failed_switches", "retries",
                      "degraded", "recovered"});
  double fault_free = 0.0;
  double resilient_at_10 = 0.0;
  double no_retry_at_10 = 0.0;
  for (double p : {0.0, 0.05, 0.10, 0.20}) {
    for (Mode mode : {Mode::kNoRetry, Mode::kResilient}) {
      ExperimentConfig cfg = BaseConfig(mode);
      if (p > 0) {
        cfg.faults = SweepFaults(p, /*seed=*/7);
      }
      Scenario s = BuildScenario(std::move(cfg));
      s.Run();
      uint64_t failed = 0;
      for (const auto& t : s.tasks) {
        failed += t->failed_switches();
      }
      ResilienceCounters rc = s.exp->resilience();
      double miss = s.monitor.TotalMissRatio();
      table.AddRow({TablePrinter::Fmt(p, 2), mode == Mode::kNoRetry ? "no-retry" : "resilient",
                    Pct(miss), std::to_string(failed), std::to_string(rc.retries),
                    std::to_string(rc.degraded_entries), std::to_string(rc.recoveries)});
      if (p == 0.0 && mode == Mode::kResilient) {
        fault_free = miss;
      }
      if (p == 0.10 && mode == Mode::kResilient) {
        resilient_at_10 = miss;
      }
      if (p == 0.10 && mode == Mode::kNoRetry) {
        no_retry_at_10 = miss;
      }
    }
  }
  table.Print(std::cout);

  double bound = 2 * fault_free + 0.005;
  bool resilient_ok = resilient_at_10 <= bound;
  bool ablation_shows = no_retry_at_10 > bound;
  std::cout << "check: fault_free=" << Pct(fault_free) << " resilient@10%="
            << Pct(resilient_at_10) << " no_retry@10%=" << Pct(no_retry_at_10)
            << " bound=" << Pct(bound) << " => "
            << (resilient_ok && ablation_shows ? "PASS" : "FAIL")
            << " (resilient <= bound < no-retry)\n";
  return resilient_ok && ablation_shows;
}

bool DegradedModeDrill() {
  Header("Degraded-mode drill: outage, stale shared page, VM crash + restart");
  ExperimentConfig cfg = BaseConfig(Mode::kResilient);
  cfg.faults = SweepFaults(0.02, /*seed=*/11);
  cfg.faults.hypercall_outages.push_back({Sec(5), Sec(5) + Ms(500)});
  cfg.faults.shared_page_visibility_delay = Us(200);
  cfg.faults.vm_failures.push_back({/*vm_index=*/0, /*crash_at=*/Sec(10),
                                    /*restart_at=*/Sec(12)});
  cfg.dpwrap.watchdog.reclaim_crashed = true;
  cfg.dpwrap.watchdog.freshness_horizon = Ms(50);

  Scenario s = BuildScenario(std::move(cfg));
  // Crashed-VM recovery: when the VM restarts its tasks re-register.
  s.exp->fault_injector()->AddRestartHandler([&s](Vm* vm) {
    (void)vm;
    for (auto& t : s.tasks) {
      t->Reregister();  // No-op for tasks that are still registered.
    }
  });
  s.Run();

  ResilienceCounters rc = s.exp->resilience();
  PrintResilience(std::cout, rc);
  std::cout << "overall miss ratio: " << Pct(s.monitor.TotalMissRatio()) << "\n";
  bool ok = rc.degraded_entries > 0 && rc.recoveries > 0 && rc.vm_crashes == 1 &&
            rc.vm_restarts == 1 && rc.watchdog_reclaims >= 1;
  std::cout << "check: degraded=" << rc.degraded_entries << " recovered=" << rc.recoveries
            << " crashes=" << rc.vm_crashes << " restarts=" << rc.vm_restarts
            << " reclaims=" << rc.watchdog_reclaims << " => " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok;
}

}  // namespace
}  // namespace rtvirt::bench

int main() {
  bool sweep_ok = rtvirt::bench::TransientSweep();
  bool drill_ok = rtvirt::bench::DegradedModeDrill();
  return sweep_ok && drill_ok ? 0 : 1;
}
