// PCPU fault & capacity-degradation model tests: machine-level hotplug and
// speed semantics, the speed<->wall conversions, the degraded DP-WRAP layout,
// FaultPlan structural validation, injector event scheduling, the
// end-to-end recovery path (re-plan, evacuation, audit under degradation),
// and the planning speed DP-WRAP lays a degraded machine out at.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/rng.h"
#include "src/faults/fault_injector.h"
#include "src/hv/machine.h"
#include "src/rtvirt/wrap_layout.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

// ---- Speed conversions ----

TEST(SpeedConversion, IdentityAtFullSpeed) {
  for (TimeNs w : {TimeNs{0}, TimeNs{1}, Us(7), Ms(3), Sec(11)}) {
    EXPECT_EQ(SpeedWorkToWall(w, Bandwidth::kUnit), w);
    EXPECT_EQ(SpeedWallToWork(w, Bandwidth::kUnit), w);
  }
}

TEST(SpeedConversion, WallCoversWorkAtAnySpeed) {
  // ceil up, floor down: a wall window sized for `work` always recovers at
  // least that much work — a throttled grant never silently shortchanges.
  for (int64_t s : {1LL, 3LL, 250000000LL, 600000000LL, 999999999LL}) {
    for (TimeNs w : {TimeNs{1}, TimeNs{17}, Us(1), Us(4500), Ms(10)}) {
      TimeNs wall = SpeedWorkToWall(w, s);
      EXPECT_GE(SpeedWallToWork(wall, s), w) << "speed=" << s << " work=" << w;
      // And not by much: one less wall ns must not still cover the work.
      if (wall > 0) {
        EXPECT_LT(SpeedWallToWork(wall - 1, s), w) << "speed=" << s << " work=" << w;
      }
    }
  }
}

TEST(SpeedConversion, SlowerMeansLonger) {
  EXPECT_EQ(SpeedWorkToWall(Ms(6), 600000000), Ms(10));  // 0.6x: 6 ms takes 10 ms.
  EXPECT_EQ(SpeedWallToWork(Ms(10), 600000000), Ms(6));
  EXPECT_EQ(SpeedWorkToWall(Ms(1), 500000000), Ms(2));
}

// ---- Machine-level hotplug / speed state ----

struct FaultRig {
  explicit FaultRig(int pcpus, int vcpus, MachineConfig cfg = MachineConfig{}) {
    cfg.num_pcpus = pcpus;
    cfg.context_switch_cost = 0;
    cfg.migration_cost = 0;
    machine = std::make_unique<Machine>(&sim, cfg);
    machine->SetScheduler(std::make_unique<DedicatedScheduler>());
    vm = machine->AddVm("vm");
    clients.resize(vcpus);
    for (int i = 0; i < vcpus; ++i) {
      vm->AddVcpu()->set_client(&clients[i]);
    }
    machine->Start();
  }

  struct CountingClient : public VcpuClient {
    void OnVcpuGranted(Vcpu*) override { ++grants; }
    void OnVcpuRevoked(Vcpu*) override { ++revokes; }
    int grants = 0;
    int revokes = 0;
  };

  Simulator sim;
  std::unique_ptr<Machine> machine;
  Vm* vm = nullptr;
  std::vector<CountingClient> clients;
};

TEST(PcpuFaults, OfflineEvacuatesTheRunningVcpu) {
  FaultRig rig(2, 2);
  rig.vm->vcpu(0)->Wake();
  rig.vm->vcpu(1)->Wake();
  rig.sim.RunUntil(Ms(1));
  ASSERT_EQ(rig.machine->pcpu(1)->current(), rig.vm->vcpu(1));

  rig.sim.At(Ms(2), [&] { rig.machine->SetPcpuOnline(1, false); });
  rig.sim.RunUntil(Ms(3));
  EXPECT_FALSE(rig.machine->pcpu(1)->online());
  EXPECT_EQ(rig.machine->pcpu(1)->current(), nullptr);
  EXPECT_EQ(rig.machine->pcpu(1)->run_until(), kTimeNever);
  EXPECT_EQ(rig.machine->stats().pcpu_evacuations, 1u);
  EXPECT_EQ(rig.vm->vcpu(1)->evacuations(), 1u);
  EXPECT_EQ(rig.clients[1].revokes, 1);
  EXPECT_EQ(rig.machine->num_online_pcpus(), 1);
  // The evacuated VCPU ran until the failure instant, not a tick longer.
  EXPECT_EQ(rig.vm->vcpu(1)->total_runtime(), Ms(2));
}

TEST(PcpuFaults, OfflineIdleCoreEvacuatesNobody) {
  FaultRig rig(2, 1);  // PCPU 1 never has anyone dispatched.
  rig.vm->vcpu(0)->Wake();
  rig.sim.At(Ms(1), [&] { rig.machine->SetPcpuOnline(1, false); });
  rig.sim.RunUntil(Ms(2));
  EXPECT_EQ(rig.machine->stats().pcpu_evacuations, 0u);
  EXPECT_EQ(rig.machine->num_online_pcpus(), 1);
}

TEST(PcpuFaults, ReOnlineRestoresDispatch) {
  FaultRig rig(1, 1);
  rig.vm->vcpu(0)->Wake();
  rig.sim.At(Ms(1), [&] { rig.machine->SetPcpuOnline(0, false); });
  rig.sim.At(Ms(5), [&] { rig.machine->SetPcpuOnline(0, true); });
  rig.sim.RunUntil(Ms(8));
  EXPECT_TRUE(rig.machine->pcpu(0)->online());
  EXPECT_EQ(rig.machine->pcpu(0)->current(), rig.vm->vcpu(0));
  // 1 ms before the outage + 3 ms after re-online; the 4 ms window is lost.
  EXPECT_EQ(rig.vm->vcpu(0)->total_runtime(), Ms(4));
}

TEST(PcpuFaults, EvacuationPenaltyChargedOnceOnNextDispatch) {
  MachineConfig cfg;
  cfg.evacuation_penalty = Us(300);
  FaultRig rig(2, 1, cfg);
  rig.vm->vcpu(0)->Wake();
  rig.sim.RunUntil(Ms(1));
  ASSERT_EQ(rig.machine->pcpu(0)->current(), rig.vm->vcpu(0));

  rig.sim.At(Ms(1), [&] { rig.machine->SetPcpuOnline(0, false); });
  rig.sim.RunUntil(Ms(2));
  EXPECT_EQ(rig.vm->vcpu(0)->pending_evacuation_penalty(), Us(300));
  TimeNs mig_before = rig.machine->overhead().migration_time;

  // The dedicated scheduler pins vcpu 0 to pcpu 0; re-onlining it brings the
  // evacuee back and the one-shot salvage cost is paid exactly once.
  rig.sim.At(Ms(2), [&] { rig.machine->SetPcpuOnline(0, true); });
  rig.sim.RunUntil(Ms(10));
  EXPECT_EQ(rig.vm->vcpu(0)->pending_evacuation_penalty(), 0);
  EXPECT_EQ(rig.machine->overhead().migration_time - mig_before, Us(300));
  // 1 ms before the fault, plus the window after re-online minus the penalty.
  EXPECT_EQ(rig.vm->vcpu(0)->total_runtime(), Ms(1) + Ms(8) - Us(300));
}

TEST(PcpuFaults, SpeedChangeRevokesAndUpdatesEffectiveCapacity) {
  FaultRig rig(2, 2);
  rig.vm->vcpu(0)->Wake();
  rig.sim.RunUntil(Ms(1));
  EXPECT_EQ(rig.machine->EffectiveCapacity(), Bandwidth::Cpus(2));

  rig.sim.At(Ms(1), [&] { rig.machine->SetPcpuSpeed(0, 0.5); });
  rig.sim.RunUntil(Ms(2));
  EXPECT_EQ(rig.machine->pcpu(0)->speed_ppb(), Bandwidth::kUnit / 2);
  EXPECT_EQ(rig.machine->EffectiveCapacity(), Bandwidth::FromPpb(Bandwidth::kUnit * 3 / 2));
  // Every grant runs at one constant speed: the change forced a revoke and a
  // fresh dispatch (the dedicated scheduler re-grants immediately).
  EXPECT_GE(rig.clients[0].revokes, 1);
  EXPECT_EQ(rig.machine->pcpu(0)->current(), rig.vm->vcpu(0));

  rig.sim.At(Ms(2), [&] { rig.machine->SetPcpuSpeed(0, 1.0); });
  rig.sim.RunUntil(Ms(3));
  EXPECT_EQ(rig.machine->EffectiveCapacity(), Bandwidth::Cpus(2));
}

// A speed that rounds to 0 ppb would leave an online core that every grant
// divides by; it is fatal at the source instead.
TEST(PcpuFaultsDeathTest, SpeedOutsideWholePpbIsFatal) {
  FaultRig rig(1, 1);
  EXPECT_DEATH(rig.machine->SetPcpuSpeed(0, 1e-10),
               "SetPcpuSpeed: pcpu 0 speed 1e-10 does not round to \\[1, 1000000000\\] ppb");
  EXPECT_DEATH(rig.machine->SetPcpuSpeed(0, 1.5), "SetPcpuSpeed: pcpu 0 speed 1.5");
}

// ---- Wrap layout on degraded cores ----

// WrapAround into a fresh buffer; `occupied` is taken by value.
std::vector<WrapSegment> Degraded(const std::vector<WrapItem>& items, TimeNs slice_len,
                                  std::vector<TimeNs> occupied,
                                  const std::vector<int64_t>& speeds) {
  std::vector<WrapSegment> segments;
  WrapAround(items, slice_len, occupied, speeds, &segments);
  return segments;
}

TEST(WrapAround, SkipsDeadCoresAndStretchesThrottledOnes) {
  // 3 cores: full, dead, half speed. 2 items of 1 ms effective each.
  std::vector<WrapItem> items{{0, Ms(1)}, {1, Ms(1)}};
  std::vector<TimeNs> occupied{0, 0, 0};
  std::vector<int64_t> speeds{Bandwidth::kUnit, 0, Bandwidth::kUnit / 2};
  std::vector<WrapSegment> segs = Degraded(items, Ms(2), occupied, speeds);

  std::vector<TimeNs> fill(3, 0);
  std::vector<TimeNs> eff(2, 0);
  for (const WrapSegment& s : segs) {
    ASSERT_NE(s.pcpu, 1) << "segment laid onto a dead core";
    ASSERT_GE(s.end, s.start);
    fill[s.pcpu] += s.end - s.start;
    eff[s.item_id] += SpeedWallToWork(s.end - s.start, speeds[s.pcpu]);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_LE(fill[k], Ms(2));
  }
  // Each item's effective supply is within rounding slack of its allocation.
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(eff[i], Ms(1) - 8);
    EXPECT_LE(eff[i], Ms(1) + 8);
  }
}

TEST(WrapAround, HeterogeneousSpeedsConserveEffectiveSupply) {
  // Demand sized to the surviving effective capacity of {1.0, 0.6, 0.3, dead}.
  TimeNs slice = Ms(10);
  std::vector<int64_t> speeds{Bandwidth::kUnit, 600000000, 300000000, 0};
  TimeNs eff_total = slice + SpeedWallToWork(slice, speeds[1]) +
                     SpeedWallToWork(slice, speeds[2]);
  std::vector<WrapItem> items;
  TimeNs each = eff_total / 5;
  for (int i = 0; i < 5; ++i) {
    items.push_back(WrapItem{i, each});
  }
  std::vector<TimeNs> occupied(4, 0);
  std::vector<WrapSegment> segs = Degraded(items, slice, occupied, speeds);

  std::vector<TimeNs> fill(4, 0);
  std::vector<TimeNs> eff(5, 0);
  for (const WrapSegment& s : segs) {
    ASSERT_NE(s.pcpu, 3);
    fill[s.pcpu] += s.end - s.start;
    eff[s.item_id] += SpeedWallToWork(s.end - s.start, speeds[s.pcpu]);
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_LE(fill[k], slice) << "pcpu " << k << " overfilled";
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(eff[i], each - 16) << "item " << i << " shortchanged";
  }
}

// ---- FaultPlan validation ----

TEST(FaultPlanValidate, AcceptsAWellFormedPlan) {
  FaultPlan plan;
  plan.hypercall_outages.push_back({Sec(1), Sec(2)});
  plan.hypercall_outages.push_back({Sec(3), Sec(4)});
  plan.vm_failures.push_back({0, Sec(5), Sec(6)});
  FaultPlan::PcpuFault f;
  f.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  f.pcpu = 1;
  f.at = Sec(1);
  f.until = Sec(2);
  plan.pcpu_faults.push_back(f);
  EXPECT_EQ(plan.Validate(4), "");
}

TEST(FaultPlanValidate, NamesTheOffendingEntry) {
  FaultPlan plan;
  plan.hypercall_outages.push_back({Sec(2), Sec(1)});
  EXPECT_NE(plan.Validate(4).find("hypercall_outages[0]"), std::string::npos);

  FaultPlan overlap;
  overlap.hypercall_outages.push_back({Sec(1), Sec(3)});
  overlap.hypercall_outages.push_back({Sec(2), Sec(4)});
  EXPECT_NE(overlap.Validate(4).find("overlaps"), std::string::npos);

  FaultPlan range;
  FaultPlan::PcpuFault f;
  f.pcpu = 4;
  f.at = Sec(1);
  range.pcpu_faults.push_back(f);
  EXPECT_NE(range.Validate(4).find("pcpu_faults[0]"), std::string::npos);
  EXPECT_NE(range.Validate(4).find("out of range"), std::string::npos);

  FaultPlan speed;
  FaultPlan::PcpuFault d;
  d.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  d.pcpu = 0;
  d.at = Sec(1);
  d.until = Sec(2);
  d.speed = 1.5;
  speed.pcpu_faults.push_back(d);
  EXPECT_NE(speed.Validate(4).find("speed"), std::string::npos);
}

TEST(FaultPlanValidate, RejectsSpeedsBelowOnePpb) {
  FaultPlan plan;
  FaultPlan::PcpuFault d;
  d.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  d.pcpu = 1;
  d.at = Sec(1);
  d.until = Sec(2);
  d.speed = 1e-9;  // Rounds to 1 ppb: the slowest speed a core can run at.
  plan.pcpu_faults.push_back(d);
  EXPECT_EQ(plan.Validate(4), "");
  plan.pcpu_faults[0].speed = 1e-10;
  std::string err = plan.Validate(4);
  EXPECT_NE(err.find("pcpu_faults[0]: degrade speed"), std::string::npos) << err;

  FaultPlan cluster;
  FaultPlan::HostFault h;
  h.kind = FaultPlan::HostFault::Kind::kDegrade;
  h.at = Sec(1);
  h.until = Sec(2);
  h.factor = 4e-10;
  cluster.host_faults.push_back(h);
  err = cluster.Validate(4, -1, 2);
  EXPECT_NE(err.find("host_faults[0]: degrade factor"), std::string::npos) << err;
}

TEST(FaultPlanValidate, RejectsOverlappingWindowsOnTheSameCore) {
  FaultPlan plan;
  FaultPlan::PcpuFault dead;  // Permanent: occupies [at, forever).
  dead.kind = FaultPlan::PcpuFault::Kind::kPermanentFailure;
  dead.pcpu = 2;
  dead.at = Sec(5);
  plan.pcpu_faults.push_back(dead);
  FaultPlan::PcpuFault later;
  later.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  later.pcpu = 2;
  later.at = Sec(7);
  later.until = Sec(8);
  plan.pcpu_faults.push_back(later);
  EXPECT_NE(plan.Validate(4).find("overlaps"), std::string::npos);

  // Same windows on different cores are fine.
  plan.pcpu_faults[1].pcpu = 3;
  EXPECT_EQ(plan.Validate(4), "");
}

TEST(FaultPlanValidate, ConstructionDiesOnInvalidPlan) {
  Simulator sim;
  MachineConfig mcfg;
  mcfg.num_pcpus = 2;
  Machine machine(&sim, mcfg);
  FaultPlan plan;
  FaultPlan::PcpuFault f;
  f.pcpu = 7;  // Machine only has 2.
  plan.pcpu_faults.push_back(f);
  EXPECT_DEATH(FaultInjector(&machine, plan), "invalid FaultPlan");
}

// ---- Injector event scheduling ----

TEST(FaultInjector, FiresPcpuEventsOnSchedule) {
  Simulator sim;
  MachineConfig mcfg;
  mcfg.num_pcpus = 3;
  Machine machine(&sim, mcfg);
  machine.SetScheduler(std::make_unique<DedicatedScheduler>());
  machine.Start();

  FaultPlan plan;
  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  outage.pcpu = 1;
  outage.at = Ms(10);
  outage.until = Ms(30);
  plan.pcpu_faults.push_back(outage);
  FaultPlan::PcpuFault throttle;
  throttle.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  throttle.pcpu = 2;
  throttle.at = Ms(20);
  throttle.until = Ms(40);
  throttle.speed = 0.25;
  plan.pcpu_faults.push_back(throttle);
  FaultInjector injector(&machine, plan);
  injector.Arm();

  sim.RunUntil(Ms(15));
  EXPECT_FALSE(machine.pcpu(1)->online());
  EXPECT_EQ(injector.stats().pcpu_offline_events, 1u);

  sim.RunUntil(Ms(25));
  EXPECT_EQ(machine.pcpu(2)->speed_ppb(), Bandwidth::kUnit / 4);
  EXPECT_EQ(injector.stats().pcpu_degrade_events, 1u);

  sim.RunUntil(Ms(50));
  EXPECT_TRUE(machine.pcpu(1)->online());
  EXPECT_EQ(machine.pcpu(2)->speed_ppb(), Bandwidth::kUnit);
  EXPECT_EQ(injector.stats().pcpu_online_events, 1u);
  EXPECT_EQ(injector.stats().pcpu_heal_events, 1u);
}

// ---- End-to-end recovery ----

ExperimentConfig RecoveryConfig() {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 4;
  cfg.dpwrap.pcpu_recovery.enabled = true;
  cfg.audit.enabled = true;
  return cfg;
}

TEST(PcpuRecovery, ReplansOffTheDeadCoreAndAuditsClean) {
  ExperimentConfig cfg = RecoveryConfig();
  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  outage.pcpu = 3;
  outage.at = Ms(50);
  outage.until = Ms(150);
  cfg.faults.pcpu_faults.push_back(outage);

  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("g", 3);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int i = 0; i < 3; ++i) {
    rtas.push_back(std::make_unique<PeriodicRta>(
        g, "t" + std::to_string(i), RtaParams{Ms(4), Ms(10)}));
    rtas.back()->Start(0, Ms(200));
  }
  exp.Run(Ms(200));

  EXPECT_GE(exp.dpwrap()->stats().capacity_replans, 2u);  // Offline + re-online.
  EXPECT_GT(exp.auditor()->stats().audit_checks, 0u);
  EXPECT_EQ(exp.auditor()->stats().audit_violations, 0u);
  ResilienceCounters rc = exp.resilience();
  EXPECT_EQ(rc.pcpu_offline_events, 1u);
  EXPECT_EQ(rc.pcpu_online_events, 1u);
  EXPECT_EQ(rc.capacity_replans, exp.dpwrap()->stats().capacity_replans);
}

TEST(PcpuRecovery, DegradedPlanNeverExceedsEffectiveCapacity) {
  ExperimentConfig cfg = RecoveryConfig();
  FaultPlan::PcpuFault throttle;
  throttle.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  throttle.pcpu = 0;
  throttle.at = Ms(30);
  throttle.speed = 0.5;  // Forever: the whole run past 30 ms is degraded.
  cfg.faults.pcpu_faults.push_back(throttle);

  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("g", 2);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int i = 0; i < 2; ++i) {
    rtas.push_back(std::make_unique<PeriodicRta>(
        g, "t" + std::to_string(i), RtaParams{Ms(3), Ms(10)}));
    rtas.back()->Start(0, Ms(200));
  }
  exp.Run(Ms(200));
  EXPECT_GT(exp.auditor()->stats().audit_checks, 0u);
  EXPECT_EQ(exp.auditor()->stats().audit_violations, 0u);
  EXPECT_EQ(exp.resilience().pcpu_degrade_events, 1u);
}

TEST(PcpuRecovery, FrozenLayoutKeepsNominalCapacity) {
  // Default (recovery off): capacity events change nothing scheduler-side.
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 2;
  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kPermanentFailure;
  outage.pcpu = 1;
  outage.at = Ms(20);
  cfg.faults.pcpu_faults.push_back(outage);

  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("g", 1);
  PeriodicRta rta(g, "t", RtaParams{Ms(2), Ms(10)});
  rta.Start(0, Ms(100));
  exp.Run(Ms(100));
  EXPECT_EQ(exp.dpwrap()->stats().capacity_replans, 0u);
  EXPECT_FALSE(exp.machine().pcpu(1)->online());
  EXPECT_EQ(exp.machine().EffectiveCapacity(), Bandwidth::Cpus(1));
}

// ---- Planning speed ----

// DP-WRAP plans against each PCPU's planning speed: the core's real speed
// with pcpu_recovery, full speed without (the frozen baseline). This gives
// three idle guests' VCPUs seeded reservations, some pinned (one to the core
// that gets throttled, one to the core that goes offline, one never), can
// throttle PCPU 1 and take PCPU 2 offline, then publishes seeded deadlines
// and returns the scheduler's saved state after each of several replans.
// That state holds the plan segment by segment, and with idle VCPUs nothing
// else in it depends on the cores, so equal trails mean equal plans.
std::vector<std::string> PlanTrail(uint64_t seed, bool recovery, bool degraded) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(4);
  cfg.dpwrap.pcpu_recovery.enabled = recovery;
  Experiment exp(cfg);
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 3; ++i) {
    Vm* vm = exp.AddGuest("vm" + std::to_string(i), 2)->vm();
    for (int k = 0; k < vm->num_vcpus(); ++k) {
      vcpus.push_back(vm->vcpu(k));
    }
  }
  Rng rng(seed);
  for (size_t i = 0; i < vcpus.size(); ++i) {
    HypercallArgs args;
    args.op = SchedOp::kIncBw;
    args.vcpu_a = vcpus[i];
    args.bw_a = Bandwidth::FromPpb(rng.UniformInt(Bandwidth::kUnit / 10, Bandwidth::kUnit / 2));
    args.period_a = Ms(rng.UniformInt(4, 40));
    EXPECT_EQ(exp.machine().Hypercall(vcpus[i], args), kHypercallOk);
    int pin = i == 0 ? 1 : i == 1 ? 2 : i == 2 ? -1 : static_cast<int>(rng.UniformInt(-1, 3));
    exp.dpwrap()->SetAffinity(vcpus[i], pin);
  }
  exp.Run(0);
  if (degraded) {
    exp.machine().SetPcpuSpeed(1, 0.6);
    exp.machine().SetPcpuOnline(2, false);
  }
  std::vector<std::string> trail;
  for (int step = 0; step < 6; ++step) {
    TimeNs now = exp.machine().sim()->Now();
    for (Vcpu* v : vcpus) {
      v->vm()->shared_page().PublishNextDeadline(v->index(), now + Ms(rng.UniformInt(1, 30)));
    }
    exp.Run(now + Ms(rng.UniformInt(10, 50)));
    ckpt::Writer w;
    exp.dpwrap()->SaveState(w);
    trail.push_back(w.Take());
  }
  EXPECT_GE(exp.dpwrap()->replans(), 6u);
  return trail;
}

TEST(DpWrapPlanningSpeed, FrozenLayoutPlansADegradedMachineLikeAHealthyOne) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    std::vector<std::string> healthy = PlanTrail(seed, /*recovery=*/false, /*degraded=*/false);
    std::vector<std::string> degraded = PlanTrail(seed, /*recovery=*/false, /*degraded=*/true);
    ASSERT_EQ(healthy.size(), degraded.size());
    for (size_t i = 0; i < healthy.size(); ++i) {
      EXPECT_TRUE(healthy[i] == degraded[i]) << "seed " << seed << ", replan step " << i;
    }
  }
}

TEST(DpWrapPlanningSpeed, RecoveryOnAHealthyMachinePlansLikeRecoveryOff) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    std::vector<std::string> off = PlanTrail(seed, /*recovery=*/false, /*degraded=*/false);
    std::vector<std::string> on = PlanTrail(seed, /*recovery=*/true, /*degraded=*/false);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_TRUE(off[i] == on[i]) << "seed " << seed << ", replan step " << i;
    }
  }
}

}  // namespace
}  // namespace rtvirt
