// Baseline host schedulers: deferrable-server gEDF (RT-Xen / vanilla EDF)
// and Credit (proportional share with boost).

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

ExperimentConfig BaseConfig(Framework fw, int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = fw;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.credit.tick_cost = 0;
  cfg.credit.dispatch_cost = 0;
  cfg.credit.pick_cost = 0;
  cfg.server_edf.pick_cost = 0;
  return cfg;
}

TEST(ServerEdf, ServerGetsConfiguredBandwidth) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  rt->CreateBackgroundTask("rt-bg");  // Keep the server always runnable.
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(3), Ms(10)});
  exp.Run(Sec(1));
  EXPECT_NEAR(static_cast<double>(rt->vm()->TotalRuntime()), static_cast<double>(Ms(300)),
              static_cast<double>(Ms(15)));
  EXPECT_NEAR(static_cast<double>(hog->vm()->TotalRuntime()), static_cast<double>(Ms(700)),
              static_cast<double>(Ms(15)));
}

// Server interfaces exist only on the server-EDF hosts; the other
// frameworks refuse them by name, in Release builds too.
TEST(ServerEdfDeathTest, SetVcpuServerNeedsAServerEdfHost) {
  for (Framework framework : {Framework::kCredit, Framework::kRtvirt}) {
    Experiment exp(BaseConfig(framework, 1));
    GuestOs* g = exp.AddGuest("vm", 1);
    EXPECT_DEATH(exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{Ms(3), Ms(10)}),
                 std::string("SetVcpuServer: a ") + FrameworkName(framework) +
                     " experiment has no server-EDF host")
        << FrameworkName(framework);
  }
}

TEST(ServerEdf, EdfOrderAmongServers) {
  // Two always-busy servers on one PCPU: the shorter-period server's jobs
  // must meet deadlines because EDF favors it each period.
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* a = exp.AddGuest("a", 1);
  GuestOs* b = exp.AddGuest("b", 1);
  exp.SetVcpuServer(a->vm()->vcpu(0), ServerParams{Ms(2), Ms(5)});
  exp.SetVcpuServer(b->vm()->vcpu(0), ServerParams{Ms(12), Ms(20)});
  DeadlineMonitor mon;
  PeriodicRta ra(a, "ra", RtaParams{Ms(2), Ms(5), false});
  PeriodicRta rb(b, "rb", RtaParams{Ms(12), Ms(20), false});
  ra.task()->set_observer(&mon);
  rb.task()->set_observer(&mon);
  ra.Start(0, Sec(1));
  rb.Start(0, Sec(1));
  exp.Run(Sec(1) + Ms(30));
  EXPECT_GE(mon.total_completed(), 245u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(ServerEdf, DepletedServerWaitsForReplenishment) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  rt->CreateBackgroundTask("bg");
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(1), Ms(100)});
  exp.Run(Ms(500));
  // Non-work-conserving: ~1ms per 100ms even with an idle machine.
  EXPECT_NEAR(static_cast<double>(rt->vm()->TotalRuntime()), static_cast<double>(Ms(5)),
              static_cast<double>(Ms(2)));
}

TEST(ServerEdf, DeferrableServerPreservesBudgetWhenIdle) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(4), Ms(10)});
  Task* s = rt->CreateTask("late");
  ASSERT_EQ(rt->SchedSetAttr(s, RtaParams{Ms(3), Ms(10), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  exp.Run(Ms(100));
  // Job arrives mid-period: the idle server kept its budget and serves it
  // immediately (deferrable behaviour).
  rt->ReleaseJob(s, Ms(3), exp.sim().Now() + Ms(10));
  exp.Run(Ms(200));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_EQ(mon.total_misses(), 0u);
  EXPECT_LE(mon.response_times_us().Max(), 4000.0);
}

TEST(Credit, WeightsShareProportionally) {
  Experiment exp(BaseConfig(Framework::kCredit, 1));
  exp.config();
  GuestOs* a = exp.AddGuest("a", 1);
  GuestOs* b = exp.AddGuest("b", 1);
  a->vm()->set_weight(256);
  b->vm()->set_weight(768);
  a->CreateBackgroundTask("bga");
  b->CreateBackgroundTask("bgb");
  exp.Run(Sec(2));
  double ra = static_cast<double>(a->vm()->TotalRuntime());
  double rb = static_cast<double>(b->vm()->TotalRuntime());
  EXPECT_NEAR(rb / (ra + rb), 0.75, 0.05);
}

TEST(Credit, BoostServesWakingVmQuickly) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  cfg.credit.timeslice = Ms(30);
  Experiment exp(cfg);
  GuestOs* lat = exp.AddGuest("lat", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  Task* s = lat->CreateTask("svc");
  ASSERT_EQ(lat->SchedSetAttr(s, RtaParams{Us(100), Ms(5), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  exp.Run(Ms(100));
  lat->ReleaseJob(s, Us(100), exp.sim().Now() + Ms(5));
  exp.Run(Ms(200));
  ASSERT_EQ(mon.total_completed(), 1u);
  // Without boost it would wait for the hog's 30ms quantum; with boost only
  // the ratelimit (500us) can delay it.
  EXPECT_LE(mon.response_times_us().Max(), 700.0);
}

TEST(Credit, RatelimitDelaysPreemption) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  Experiment exp(cfg);
  GuestOs* lat = exp.AddGuest("lat", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  Task* s = lat->CreateTask("svc");
  ASSERT_EQ(lat->SchedSetAttr(s, RtaParams{Us(10), Ms(5), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  // First request: the hog ran a long quantum, so its ratelimit window has
  // expired and the boosted wake preempts immediately. After it completes,
  // the hog is re-dispatched; a second request 50us later falls inside the
  // hog's fresh ratelimit window and waits for the remainder of it.
  exp.Run(Ms(100));
  lat->ReleaseJob(s, Us(10), exp.sim().Now() + Ms(5));
  exp.Run(Ms(100) + Us(50));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_LE(mon.response_times_us().Max(), 50.0);
  lat->ReleaseJob(s, Us(10), exp.sim().Now() + Ms(5));
  exp.Run(Ms(102));
  ASSERT_EQ(mon.total_completed(), 2u);
  EXPECT_GE(mon.response_times_us().Max(), 250.0);
  EXPECT_LE(mon.response_times_us().Max(), 600.0);
}

TEST(Credit, TickInterferenceChargesOverhead) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  cfg.credit.tick_cost = Us(40);
  Experiment exp(cfg);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  exp.Run(Sec(1));
  // ~100 ticks of 40us each.
  EXPECT_NEAR(static_cast<double>(exp.machine().overhead().schedule_time),
              static_cast<double>(Ms(4)),
              static_cast<double>(Ms(1)));
  EXPECT_LT(hog->vm()->TotalRuntime(), Sec(1) - Ms(3));
}

TEST(VanillaEdf, SameSchedulerDifferentFrameworkLabel) {
  Experiment exp(BaseConfig(Framework::kVanillaEdf, 1));
  EXPECT_NE(exp.server_edf(), nullptr);
  EXPECT_EQ(exp.dpwrap(), nullptr);
  EXPECT_STREQ(FrameworkName(Framework::kVanillaEdf), "Vanilla-EDF");
}

}  // namespace
}  // namespace rtvirt
