// Extended baseline-scheduler behaviour: Credit caps, Credit boost decay,
// and the quantum-driven server-EDF mode of section 4.5.

#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/credit.h"
#include "src/baselines/server_edf.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig CreditConfig0(int pcpus, TimeNs timeslice = Ms(30)) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kCredit;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.credit.timeslice = timeslice;
  cfg.credit.tick_cost = 0;
  cfg.credit.dispatch_cost = 0;
  cfg.credit.pick_cost = 0;
  return cfg;
}

TEST(CreditCaps, CapLimitsConsumptionEvenOnIdleHost) {
  Experiment exp(CreditConfig0(1));
  GuestOs* g = exp.AddGuest("capped", 1);
  g->CreateBackgroundTask("bg");
  exp.credit()->SetCap(g->vm()->vcpu(0), Bandwidth::FromDouble(0.25));
  exp.Run(Sec(3));
  // ~25% of one otherwise-idle CPU.
  EXPECT_NEAR(static_cast<double>(g->vm()->TotalRuntime()) / static_cast<double>(Sec(3)),
              0.25, 0.02);
}

TEST(CreditCaps, UncappedVcpuUnaffected) {
  Experiment exp(CreditConfig0(1));
  GuestOs* capped = exp.AddGuest("capped", 1);
  GuestOs* free_vm = exp.AddGuest("free", 1);
  capped->CreateBackgroundTask("bg1");
  free_vm->CreateBackgroundTask("bg2");
  exp.credit()->SetCap(capped->vm()->vcpu(0), Bandwidth::FromDouble(0.2));
  exp.Run(Sec(3));
  EXPECT_NEAR(static_cast<double>(capped->vm()->TotalRuntime()) / static_cast<double>(Sec(3)),
              0.2, 0.03);
  // The uncapped VM soaks up the rest.
  EXPECT_GT(free_vm->vm()->TotalRuntime(), Sec(3) * 7 / 10);
}

TEST(CreditCaps, CapEnforcedPerAccountingWindow) {
  // With a 30 ms window and a 50% cap, a busy VCPU runs ~15 ms then parks
  // until the next accounting: bursty service, the source of Figure 5b's
  // video deadline misses under Credit.
  Experiment exp(CreditConfig0(1, Ms(30)));
  GuestOs* g = exp.AddGuest("vm", 1);
  g->CreateBackgroundTask("bg");
  exp.credit()->SetCap(g->vm()->vcpu(0), Bandwidth::FromDouble(0.5));
  exp.Run(Ms(30) + Ms(1));
  TimeNs first_window = g->vm()->TotalRuntime();
  EXPECT_NEAR(static_cast<double>(first_window), static_cast<double>(Ms(15)),
              static_cast<double>(Ms(2)));
  // It ran contiguously at the window start, then parked.
  exp.Run(Ms(45));
  EXPECT_NEAR(static_cast<double>(g->vm()->TotalRuntime() - first_window),
              static_cast<double>(Ms(15)), static_cast<double>(Ms(2)));
}

TEST(CreditBoost, BoostDecaysAfterTickOfCpu) {
  ExperimentConfig cfg = CreditConfig0(1, Ms(30));
  Experiment exp(cfg);
  GuestOs* lat = exp.AddGuest("lat", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  // A small weight: once the boost decays, the service VM has burnt its
  // modest credits and drops to OVER behind the hog until the next windows
  // trickle credits back.
  lat->vm()->set_weight(256);
  hog->vm()->set_weight(2560);
  hog->CreateBackgroundTask("bg");
  Task* s = lat->CreateTask("svc");
  ASSERT_EQ(lat->SchedSetAttr(s, RtaParams{Ms(15), Ms(100), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  exp.Run(Ms(100));
  // A long (15 ms) job: boosted for the first tick (10 ms of CPU), then it
  // drops behind the heavyweight hog, so it takes longer than 15 ms wall
  // time to finish (boost is a short-burst mechanism, not a reservation).
  lat->ReleaseJob(s, Ms(15), exp.sim().Now() + Ms(100));
  exp.Run(Sec(2));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_GT(mon.per_task().at("svc").max_response, Ms(15));
}

TEST(QuantumDriven, BudgetOverrunsRepaidAtReplenish) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtXen;
  cfg.machine = ZeroCostMachine(1);
  cfg.server_edf.pick_cost = 0;
  cfg.server_edf.quantum = Ms(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{Us(200), Ms(2)});
  // One 500 us job: with exact enforcement it would be chopped at 200 us per
  // period; quantum enforcement lets it run to completion in one go (the
  // 1 ms quantum exceeds the remaining budget), and the overrun is repaid
  // from later replenishments.
  Task* t = g->CreateTask("t");
  ASSERT_EQ(g->SchedSetAttr(t, RtaParams{Us(180), Ms(2), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(t);
  exp.Run(Ms(10));
  g->ReleaseJob(t, Us(500), exp.sim().Now() + Ms(10));
  exp.Run(Ms(11));
  ASSERT_EQ(mon.total_completed(), 1u);
  // Ran through in one burst despite the 200 us budget.
  EXPECT_LE(mon.per_task().at("t").max_response, Us(520));
  // The debt throttles the server: a job right after waits for replenishment.
  g->ReleaseJob(t, Us(180), exp.sim().Now() + Ms(10));
  exp.Run(Ms(20));
  ASSERT_EQ(mon.total_completed(), 2u);
  EXPECT_GT(mon.per_task().at("t").max_response, Ms(1));
}

TEST(QuantumDriven, PeriodicTicksInflateScheduleCalls) {
  for (TimeNs quantum : {TimeNs{0}, Ms(1)}) {
    ExperimentConfig cfg;
    cfg.framework = Framework::kRtXen;
    cfg.machine = ZeroCostMachine(2);
    cfg.server_edf.quantum = quantum;
    Experiment exp(cfg);
    GuestOs* g = exp.AddGuest("vm", 1);
    g->CreateBackgroundTask("bg");
    exp.Run(Sec(1));
    uint64_t calls = exp.machine().overhead().schedule_calls;
    if (quantum > 0) {
      // >= 2 PCPUs x 1000 ticks.
      EXPECT_GT(calls, 1900u);
    } else {
      EXPECT_LT(calls, 1200u);  // Event-driven: ~1 per best-effort quantum.
    }
  }
}

TEST(ServerEdf, ReconfigureServerMidRun) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtXen;
  cfg.machine = ZeroCostMachine(1);
  cfg.server_edf.pick_cost = 0;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  g->CreateBackgroundTask("rt-bg");
  exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{Ms(2), Ms(10)});
  exp.Run(Sec(1));
  TimeNs at_1s = g->vm()->TotalRuntime();
  EXPECT_NEAR(static_cast<double>(at_1s), static_cast<double>(Ms(200)),
              static_cast<double>(Ms(15)));
  exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{Ms(6), Ms(10)});
  exp.Run(Sec(2));
  EXPECT_NEAR(static_cast<double>(g->vm()->TotalRuntime() - at_1s),
              static_cast<double>(Ms(600)), static_cast<double>(Ms(20)));
}

// Each machine numbers its VCPUs from global id 0, so another machine's VCPU
// would index this scheduler's state for one of its own. The setters refuse
// it in every build type.
TEST(CreditCapsDeathTest, VcpuOfAnotherMachineIsFatal) {
  Experiment a(CreditConfig0(1));
  Experiment b(CreditConfig0(1));
  a.AddGuest("a", 1);
  Vcpu* foreign = b.AddGuest("b", 1)->vm()->vcpu(0);
  EXPECT_DEATH(a.credit()->SetCap(foreign, Bandwidth::FromDouble(0.5)),
               "SetCap: VCPU b.vcpu0 is not on this scheduler's machine");
}

TEST(ServerEdfDeathTest, VcpuOfAnotherMachineOrInvalidServerIsFatal) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtXen;
  cfg.machine = ZeroCostMachine(1);
  Experiment a(cfg);
  Experiment b(cfg);
  Vcpu* own = a.AddGuest("a", 1)->vm()->vcpu(0);
  Vcpu* foreign = b.AddGuest("b", 1)->vm()->vcpu(0);
  EXPECT_DEATH(a.SetVcpuServer(foreign, ServerParams{Ms(3), Ms(10)}),
               "SetServer: VCPU b.vcpu0 is not on this scheduler's machine");
  // A zero budget would leave the VCPU best-effort with a replenishment chain.
  EXPECT_DEATH(a.SetVcpuServer(own, ServerParams{0, Ms(10)}),
               "SetServer: VCPU a.vcpu0 needs 0 < budget <= period");
  EXPECT_DEATH(a.SetVcpuServer(own, ServerParams{Ms(11), Ms(10)}),
               "SetServer: VCPU a.vcpu0 needs 0 < budget <= period");
}

}  // namespace
}  // namespace rtvirt
