// Global-EDF guest scheduling class (the SCHED_DEADLINE default the paper
// modifies away from; kept for the pEDF-vs-gEDF ablation).

#include <gtest/gtest.h>

#include <memory>

#include "src/guest/guest_os.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

GuestConfig GedfConfig() {
  GuestConfig cfg;
  cfg.sched_class = GuestSchedClass::kGlobalEdf;
  return cfg;
}

struct GedfRig {
  explicit GedfRig(int vcpus, int pcpus = 8) {
    machine = std::make_unique<Machine>(&sim, ZeroCostMachine(pcpus));
    machine->SetScheduler(std::make_unique<DedicatedScheduler>());
    vm = machine->AddVm("g");
    guest = std::make_unique<GuestOs>(vm, GedfConfig());
    for (int i = 0; i < vcpus; ++i) {
      guest->AddVcpu();
    }
    machine->Start();
  }

  Simulator sim;
  std::unique_ptr<Machine> machine;
  Vm* vm = nullptr;
  std::unique_ptr<GuestOs> guest;
};

TEST(GuestGedf, TasksAreNotPinned) {
  GedfRig rig(2);
  Task* a = rig.guest->CreateTask("a");
  ASSERT_EQ(rig.guest->SchedSetAttr(a, RtaParams{Ms(5), Ms(10), false}), kGuestOk);
  EXPECT_EQ(a->vcpu_index(), -1);
}

TEST(GuestGedf, AdmissionAgainstTotalCapacity) {
  GedfRig rig(2);
  Task* a = rig.guest->CreateTask("a");
  Task* b = rig.guest->CreateTask("b");
  Task* c = rig.guest->CreateTask("c");
  // 0.9 + 0.9 fits 2 VCPUs under gEDF (no bin packing constraint)...
  EXPECT_EQ(rig.guest->SchedSetAttr(a, RtaParams{Ms(9), Ms(10), false}), kGuestOk);
  EXPECT_EQ(rig.guest->SchedSetAttr(b, RtaParams{Ms(9), Ms(10), false}), kGuestOk);
  // ...but 0.3 more does not.
  EXPECT_EQ(rig.guest->SchedSetAttr(c, RtaParams{Ms(3), Ms(10), false}), kGuestErrBusy);
}

TEST(GuestGedf, GloballyEarliestDeadlineRunsFirst) {
  GedfRig rig(1);
  DeadlineMonitor mon;
  Task* lo = rig.guest->CreateTask("lo");
  Task* hi = rig.guest->CreateTask("hi");
  ASSERT_EQ(rig.guest->SchedSetAttr(lo, RtaParams{Ms(2), Ms(40), false}), kGuestOk);
  ASSERT_EQ(rig.guest->SchedSetAttr(hi, RtaParams{Ms(2), Ms(20), false}), kGuestOk);
  mon.Watch(lo);
  mon.Watch(hi);
  rig.guest->ReleaseJob(lo, Ms(2), Ms(40));
  rig.guest->ReleaseJob(hi, Ms(2), Ms(20));
  rig.sim.RunUntil(Ms(6));
  ASSERT_EQ(mon.total_completed(), 2u);
  // hi (deadline 20ms) completes at 2ms, lo at 4ms.
  EXPECT_DOUBLE_EQ(mon.per_task().at("hi").max_response / 1e6, 2.0);
  EXPECT_DOUBLE_EQ(mon.per_task().at("lo").max_response / 1e6, 4.0);
}

TEST(GuestGedf, TaskMigratesBetweenVcpus) {
  GedfRig rig(2);
  DeadlineMonitor mon;
  Task* big = rig.guest->CreateTask("big");
  Task* small = rig.guest->CreateTask("small");
  ASSERT_EQ(rig.guest->SchedSetAttr(big, RtaParams{Ms(8), Ms(20), false}), kGuestOk);
  ASSERT_EQ(rig.guest->SchedSetAttr(small, RtaParams{Ms(2), Ms(4), false}), kGuestOk);
  mon.Watch(big);
  mon.Watch(small);
  // big starts on some VCPU; small's stream of short-deadline jobs keeps
  // preempting; with two VCPUs both always meet deadlines.
  rig.guest->ReleaseJob(big, Ms(8), Ms(20));
  for (int k = 0; k < 4; ++k) {
    rig.sim.At(Ms(4 * k), [&] {
      rig.guest->ReleaseJob(small, Ms(2), rig.sim.Now() + Ms(4));
    });
  }
  rig.sim.RunUntil(Ms(30));
  EXPECT_EQ(mon.total_completed(), 5u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(GuestGedf, PublishesGlobalEarliestOnAllVcpus) {
  GedfRig rig(2);
  Task* a = rig.guest->CreateTask("a");
  ASSERT_EQ(rig.guest->SchedSetAttr(a, RtaParams{Ms(1), Ms(30), false}), kGuestOk);
  rig.guest->ReleaseJob(a, Ms(1), Ms(30));
  EXPECT_EQ(rig.guest->NextEarliestDeadline(0), Ms(30));
  EXPECT_EQ(rig.guest->NextEarliestDeadline(1), Ms(30));
}

TEST(GuestGedf, UnregisterReleasesShares) {
  GedfRig rig(2);
  Task* a = rig.guest->CreateTask("a");
  ASSERT_EQ(rig.guest->SchedSetAttr(a, RtaParams{Ms(9), Ms(10), false}), kGuestOk);
  ASSERT_EQ(rig.guest->SchedUnregister(a), kGuestOk);
  Task* b = rig.guest->CreateTask("b");
  Task* c = rig.guest->CreateTask("c");
  EXPECT_EQ(rig.guest->SchedSetAttr(b, RtaParams{Ms(9), Ms(10), false}), kGuestOk);
  EXPECT_EQ(rig.guest->SchedSetAttr(c, RtaParams{Ms(9), Ms(10), false}), kGuestOk);
}

// A share refused at a later VCPU rolls the earlier VCPUs back to the shares
// they held before the request, so a rejected registration leaves the host
// reservations as they were.
TEST(GuestGedf, RefusedShareRollsBackEarlierVcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(2);
  cfg.channel.budget_slack = 0;  // Exact reservations: shares are exact.
  Experiment exp(cfg);
  GuestOs* hog = exp.AddGuest("hog", 1);
  ASSERT_EQ(hog->SchedSetAttr(hog->CreateTask("h"), RtaParams{Ms(9), Ms(10), false}),
            kGuestOk);
  GuestOs* g = exp.AddGuest("vm", 2, GedfConfig());
  const Vcpu* v0 = g->vm()->vcpu(0);
  const Vcpu* v1 = g->vm()->vcpu(1);
  ASSERT_EQ(g->SchedSetAttr(g->CreateTask("a"), RtaParams{Ms(8), Ms(10), false}), kGuestOk);
  ASSERT_EQ(exp.dpwrap()->ReservedBw(v0), Bandwidth::FromDouble(0.4));
  // 0.7 per VCPU: VCPU 0's request fits (0.9 + 0.7 + 0.4), VCPU 1's does not.
  EXPECT_EQ(g->SchedSetAttr(g->CreateTask("b"), RtaParams{Ms(6), Ms(10), false}),
            kGuestErrBusy);
  EXPECT_EQ(exp.dpwrap()->ReservedBw(v0), Bandwidth::FromDouble(0.4));
  EXPECT_EQ(exp.dpwrap()->ReservedBw(v1), Bandwidth::FromDouble(0.4));
  ASSERT_EQ(g->SchedSetAttr(g->CreateTask("c"), RtaParams{Ms(2), Ms(10), false}), kGuestOk);
  EXPECT_EQ(exp.dpwrap()->ReservedBw(v0), Bandwidth::FromDouble(0.5));
  EXPECT_EQ(exp.dpwrap()->ReservedBw(v1), Bandwidth::FromDouble(0.5));
}

// End-to-end under the RTVirt host: gEDF guests still meet deadlines, at
// the price of more guest-level migrations (the paper's stated reason for
// pEDF).
TEST(GuestGedf, WorksUnderRtvirtHost) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(4);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 2, GedfConfig());
  DeadlineMonitor mon;
  PeriodicRta r1(g, "r1", RtaParams{Ms(4), Ms(10), false});
  PeriodicRta r2(g, "r2", RtaParams{Ms(6), Ms(20), false});
  r1.task()->set_observer(&mon);
  r2.task()->set_observer(&mon);
  r1.Start(0, Sec(2));
  r2.Start(0, Sec(2));
  exp.Run(Sec(2) + Ms(50));
  ASSERT_EQ(r1.admission_result(), kGuestOk);
  ASSERT_EQ(r2.admission_result(), kGuestOk);
  EXPECT_GT(mon.total_completed(), 250u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

}  // namespace
}  // namespace rtvirt
