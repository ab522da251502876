// SLO-control subsystem: the sliding-window quantile estimator (exactness,
// merge, eviction, determinism, zero-alloc steady state), the closed-loop
// controller's defensive behaviors (hysteresis, rate limiting, anti-windup,
// saturation handoff, fail-static freeze/re-engage), its interaction with
// guest_trust (a well-behaved controller is never quarantined), the
// controller-adversary FaultPlan entries, and the report byte-identity
// regression for default-path runs.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/control/slo_controller.h"
#include "src/control/windowed_quantile.h"
#include "src/faults/fault_injector.h"
#include "src/metrics/deadline_monitor.h"
#include "src/metrics/resilience.h"
#include "src/perf/alloc_hooks.h"
#include "src/runner/experiment.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

// ---- WindowedQuantile ----

WindowedQuantile::Options ExactOptions() {
  WindowedQuantile::Options o;
  o.num_slots = 4;
  o.slot_width = Ms(10);
  o.sub_bits = 5;     // Linear (exact) below 32.
  o.unit_shift = 0;   // 1 ns units: small values land in the linear range.
  o.max_octaves = 10;
  return o;
}

TEST(WindowedQuantile, ExactOnSmallWindows) {
  WindowedQuantile wq(ExactOptions());
  for (TimeNs v = 1; v <= 20; ++v) {
    wq.Add(v, 0);
  }
  EXPECT_EQ(wq.count(), 20u);
  // Rank ceil(q * 20) of {1..20} is exactly q * 20 for these q.
  EXPECT_EQ(wq.Quantile(0.05), 1);
  EXPECT_EQ(wq.Quantile(0.5), 10);
  EXPECT_EQ(wq.Quantile(0.75), 15);
  EXPECT_EQ(wq.Quantile(1.0), 20);
  // Between ranks, ceil rounds up: q=0.51 -> rank 11.
  EXPECT_EQ(wq.Quantile(0.51), 11);
}

TEST(WindowedQuantile, EmptyWindowReturnsZero) {
  WindowedQuantile wq(ExactOptions());
  EXPECT_EQ(wq.count(), 0u);
  EXPECT_EQ(wq.Quantile(0.999), 0);
}

TEST(WindowedQuantile, UpperEdgeIsConservative) {
  WindowedQuantile wq(ExactOptions());
  // 1000 is well above the linear range (32): the estimate must not
  // under-report it, and must stay within the 1/32 relative error bound.
  wq.Add(1000, 0);
  TimeNs q = wq.Quantile(1.0);
  EXPECT_GE(q, 1000);
  EXPECT_LE(q, static_cast<TimeNs>(1000.0 * (1.0 + 1.0 / 32.0)) + 1);
}

TEST(WindowedQuantile, RelativeErrorBoundAcrossOctaves) {
  WindowedQuantile::Options o = ExactOptions();
  o.max_octaves = 22;  // Top bucket far above the 1e6 values fed below.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    TimeNs v = static_cast<TimeNs>(rng.Uniform(1.0, 1e6));
    WindowedQuantile one(o);
    one.Add(v, 0);
    TimeNs q = one.Quantile(1.0);
    EXPECT_GE(q, v);
    EXPECT_LE(static_cast<double>(q), static_cast<double>(v) * (1.0 + 1.0 / 32.0) + 1.0);
  }
}

TEST(WindowedQuantile, MonotoneAcrossRanks) {
  WindowedQuantile wq(ExactOptions());
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    wq.Add(static_cast<TimeNs>(rng.Uniform(1.0, 1e5)), 0);
  }
  TimeNs prev = 0;
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    TimeNs cur = wq.Quantile(q);
    EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
    prev = cur;
  }
}

TEST(WindowedQuantile, MergeAddsCountsAndStaysMonotone) {
  WindowedQuantile a(ExactOptions());
  WindowedQuantile b(ExactOptions());
  for (TimeNs v = 1; v <= 10; ++v) {
    a.Add(v, 0);           // {1..10}
    b.Add(v + 10, 0);      // {11..20}
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 20u);
  // The merged window is exactly {1..20} (all in the linear range).
  EXPECT_EQ(a.Quantile(0.5), 10);
  EXPECT_EQ(a.Quantile(1.0), 20);
  // Merging can only move any quantile of `a` up (b's values all larger).
  EXPECT_GE(a.Quantile(0.25), 5);
}

TEST(WindowedQuantile, EvictsExpiredSlots) {
  WindowedQuantile::Options o = ExactOptions();  // 4 slots x 10 ms.
  WindowedQuantile wq(o);
  wq.Add(5, Ms(1));    // Slot 0.
  wq.Add(7, Ms(11));   // Slot 1.
  EXPECT_EQ(wq.count(), 2u);
  // Advancing to slot 4 evicts slot 0 (window is slots 1..4).
  wq.Advance(Ms(41));
  EXPECT_EQ(wq.count(), 1u);
  EXPECT_EQ(wq.Quantile(1.0), 7);
  // Advancing past every slot empties the window entirely.
  wq.Advance(Sec(1));
  EXPECT_EQ(wq.count(), 0u);
  EXPECT_EQ(wq.Quantile(0.5), 0);
}

TEST(WindowedQuantile, FullClearOnBigJump) {
  WindowedQuantile wq(ExactOptions());
  for (int i = 0; i < 100; ++i) {
    wq.Add(3, Ms(i / 10));
  }
  ASSERT_GT(wq.count(), 0u);
  wq.Add(9, Sec(100));  // Jump >> num_slots slots: everything old evicted.
  EXPECT_EQ(wq.count(), 1u);
  EXPECT_EQ(wq.Quantile(1.0), 9);
}

TEST(WindowedQuantile, SameSeedSamePercentileSeries) {
  auto run = [] {
    WindowedQuantile wq(ExactOptions());
    Rng rng(99);
    std::vector<TimeNs> series;
    TimeNs now = 0;
    for (int i = 0; i < 2000; ++i) {
      now += static_cast<TimeNs>(rng.Uniform(0.0, 1e5));
      wq.Add(static_cast<TimeNs>(rng.Uniform(1.0, 1e6)), now);
      if (i % 50 == 0) {
        series.push_back(wq.Quantile(0.999));
      }
    }
    return series;
  };
  EXPECT_EQ(run(), run());
}

TEST(WindowedQuantile, ZeroAllocationSteadyState) {
  WindowedQuantile wq(ExactOptions());
  wq.Add(1, 0);  // Construction done; arrays sized.
  perf::AllocSnapshot before = perf::AllocNow();
  TimeNs now = 0;
  for (int i = 0; i < 10000; ++i) {
    now += Us(50);
    wq.Add((i * 37) % 100000, now);
    if (i % 100 == 0) {
      (void)wq.Quantile(0.999);
    }
  }
  perf::AllocSnapshot after = perf::AllocNow();
  EXPECT_EQ(after.allocs, before.allocs) << "steady-state Add/Quantile allocated";
}

// ---- Controller integration ----
//
// One PCPU; a periodic hog pins most of the capacity so the memcached
// tenant's reservation is the real limit on its progress (DP-WRAP cannot
// hand it idle cycles that do not exist).

struct ControlRig {
  ExperimentConfig cfg;
  std::unique_ptr<Experiment> exp;
  GuestOs* tenant = nullptr;
  GuestOs* hog = nullptr;
  std::unique_ptr<MemcachedServer> server;
  std::unique_ptr<PeriodicRta> hog_rta;
  DeadlineMonitor monitor;
};

ControlConfig FastControl() {
  ControlConfig c;
  c.enabled = true;
  c.decision_period = Ms(10);
  c.min_samples = 16;
  c.window.num_slots = 8;
  c.window.slot_width = Ms(25);
  return c;
}

// qps chosen against a 1 ms SLO: demand ~48 us/request. DP-WRAP is
// work-conserving, so average-rate starvation is not enough to degrade the
// tail — the tenant coasts on idle cycles. What hurts is the hog's 6 ms
// burst: within a burst the tenant makes progress at its *guaranteed* rate
// only. At 6000 qps each burst accrues ~1.7 ms of tenant work while a 58 us
// reservation clears ~0.35 ms of it, so the tail blows through the 1 ms SLO
// until the controller INCs the reservation to burst-level parity (~220 us).
ControlRig MakeRig(double qps, ControlConfig control, FaultPlan faults = {}) {
  ControlRig rig;
  rig.cfg.framework = Framework::kRtvirt;
  rig.cfg.machine = ZeroCostMachine(1);
  rig.cfg.channel.max_retries = 2;
  rig.cfg.channel.degraded_fallback = true;
  rig.cfg.control = control;
  rig.cfg.faults = faults;
  rig.exp = std::make_unique<Experiment>(std::move(rig.cfg));
  rig.tenant = rig.exp->AddGuest("tenant", 1);
  rig.hog = rig.exp->AddGuest("hog", 1);

  MemcachedConfig mc;
  mc.qps = qps;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  rig.server = std::make_unique<MemcachedServer>(rig.tenant, "mc", mc, Rng(5));
  rig.server->Start(0, Sec(10));
  EXPECT_EQ(rig.server->admission_result(), kGuestOk);
  rig.monitor.Watch(rig.server->task());

  // The hog reserves 60% of the core, leaving ~0.4 for the tenant to grow
  // into — enough for every INC the tests ask for, scarce enough that the
  // tenant cannot coast on idle capacity.
  RtaParams hp;
  hp.slice = Ms(6);
  hp.period = Ms(10);
  rig.hog_rta = std::make_unique<PeriodicRta>(rig.hog, "hog", hp);
  rig.hog_rta->Start(0, Sec(10));

  SloController::TenantOptions topts;
  topts.slo = Ms(1);
  // Host ceiling: the hog's padded reservation is 0.65 (6 ms + 500 us slack
  // over 10 ms) and the tenant's padding is 100 us, so slices above 250 us
  // cannot be admitted. 240 us keeps the whole INC chain inside capacity.
  topts.max_slice = Us(240);
  rig.exp->controller()->Watch(rig.tenant, rig.server->task(),
                               rig.exp->ChannelOf(rig.tenant), topts);
  return rig;
}

TEST(SloController, RaisesReservationUnderLoadAndMeetsSlo) {
  ControlRig rig = MakeRig(6000.0, FastControl());
  rig.exp->Run(Sec(5));
  const ControlStats& s = rig.exp->controller()->stats();
  EXPECT_GT(s.control_samples, 1000u);
  EXPECT_GT(s.control_inc_adjustments, 0u);
  EXPECT_GT(rig.exp->controller()->CurrentSlice(rig.server->task()), Us(58));
  EXPECT_EQ(s.control_actuation_failures, 0u);
  // With the raised reservation the tail must be healthy: a (generous)
  // end-state check that the loop actually converged rather than thrashed.
  EXPECT_LT(rig.monitor.TotalMissRatio(), 0.05);
  EXPECT_FALSE(rig.exp->controller()->Frozen(rig.server->task()));
  EXPECT_EQ(rig.exp->controller()->unresolved_saturations(), 0u);
}

// A comfortable elastic tenant watched with a DEC floor below its own
// min_slice: DECs stop at the task's min_slice, the one SchedSetAttr accepts.
TEST(SloController, DecFloorNeverUndercutsTaskMinSlice) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  cfg.control = FastControl();
  Experiment exp(std::move(cfg));
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  MemcachedConfig mc;
  mc.qps = 500.0;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  MemcachedServer server(tenant, "mc", mc, Rng(5));
  server.Start(0, Sec(3));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  RtaParams elastic = server.task()->params();
  elastic.min_slice = Us(50);
  ASSERT_EQ(tenant->SchedSetAttr(server.task(), elastic), kGuestOk);
  SloController::TenantOptions topts;
  topts.slo = Ms(1);
  topts.min_slice = Us(20);
  exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant), topts);
  exp.Run(Sec(3));
  const RtaParams& p = server.task()->params();
  EXPECT_LE(p.min_slice, p.slice);
  EXPECT_EQ(p.min_slice, Us(50));
  const ControlStats& s = exp.controller()->stats();
  EXPECT_GT(s.control_dec_adjustments, 0u);
  EXPECT_EQ(s.control_actuation_failures, 0u);
}

// A second Watch of one task would record the controller as the task's
// downstream observer, and each completion would forward to itself forever.
TEST(SloControllerDeathTest, WatchingATaskTwiceIsFatal) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  cfg.control = FastControl();
  Experiment exp(std::move(cfg));
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  MemcachedConfig mc;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  MemcachedServer server(tenant, "mc", mc, Rng(5));
  server.Start(0, Sec(1));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant));
  EXPECT_DEATH(exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant)),
               "control: task " + server.task()->name() + " is already watched");
}

TEST(SloController, HysteresisHoldsWhenComfortable) {
  // 500 qps needs ~0.024 CPU; the default 0.058 reservation is comfortable,
  // so the controller must sit inside the band and never adjust.
  ControlRig rig = MakeRig(500.0, FastControl());
  rig.exp->Run(Sec(5));
  const ControlStats& s = rig.exp->controller()->stats();
  EXPECT_GT(s.control_decisions, 0u);
  EXPECT_EQ(s.control_inc_adjustments, 0u);
  EXPECT_EQ(s.control_dec_adjustments, 0u);
  // A comfortable tail either sits in-band (hysteresis) or below band at
  // the floor (the slice is already minimal); both are holds, never a DEC.
  EXPECT_GT(s.control_hysteresis_holds + s.control_demand_floor_holds, 0u);
  EXPECT_EQ(rig.exp->controller()->CurrentSlice(rig.server->task()), Us(58));
}

TEST(SloController, RateLimitBoundsAdjustmentsPerWindow) {
  ControlConfig c = FastControl();
  c.decision_period = Ms(2);          // Ticks far faster than the budget.
  c.max_adjust_per_window = 2;
  c.min_samples = 8;
  ControlRig rig = MakeRig(6000.0, c);
  rig.exp->Run(Sec(2));
  const ControlStats& s = rig.exp->controller()->stats();
  EXPECT_GT(s.control_rate_limit_holds, 0u);
  // <= 2 adjustments per 100 ms over 2 s -> hard ceiling of 40.
  EXPECT_LE(s.control_inc_adjustments + s.control_dec_adjustments, 40u);
}

TEST(SloController, WellBehavedControllerIsNeverQuarantined) {
  ControlConfig c = FastControl();
  ControlRig rig = MakeRig(6000.0, c);
  rig.exp->Run(Sec(5));
  // The controller acted...
  EXPECT_GT(rig.exp->controller()->stats().control_inc_adjustments, 0u);
  // ...and the guest_trust layer (enabled by default) saw nothing wrong.
  EXPECT_EQ(rig.exp->dpwrap()->stats().quarantines, 0u);
  EXPECT_EQ(rig.exp->dpwrap()->stats().replan_budget_trips, 0u);
  EXPECT_EQ(rig.exp->dpwrap()->stats().hypercall_rate_rejections, 0u);
  EXPECT_EQ(rig.exp->dpwrap()->stats().bw_thrash_trips, 0u);
}

TEST(SloController, FreezesOnChannelOutageAndReengages) {
  FaultPlan faults;
  // The controller only notices a dead channel while actuating, so the
  // outage must overlap the INC chain (first few hundred ms of the flash):
  // failed actuations degrade the VCPU, two strikes freeze the tenant, and
  // once the outage lifts the channel's own repair loop heals the VCPU so a
  // re-engage probe succeeds.
  faults.hypercall_outages.push_back({Ms(50), Ms(800)});
  ControlRig rig = MakeRig(6000.0, FastControl(), faults);
  rig.exp->Run(Sec(5));
  const ControlStats& s = rig.exp->controller()->stats();
  EXPECT_GT(s.control_freezes, 0u);
  EXPECT_GT(s.control_reengage_probes, 0u);
  EXPECT_GT(s.control_reengages, 0u);
  // Recovered by the end: not frozen, and the loop is steering again.
  EXPECT_FALSE(rig.exp->controller()->Frozen(rig.server->task()));
  EXPECT_GT(s.control_inc_adjustments, 0u);
}

TEST(SloController, SaturationHandsOffAndResolves) {
  // Cap the tenant barely above its starting slice: the flash demand
  // (6000 qps against the hog's bursts) cannot be met under 70 us / 1 ms,
  // so the controller must hit the cap and hand off instead of retrying
  // forever; when the flash ends the tail recovers and the handoff resolves.
  ControlConfig c = FastControl();
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  cfg.control = c;
  Experiment exp(std::move(cfg));
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  MemcachedConfig mc;
  mc.qps = 400.0;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  // Open-loop flash: 15x over [0, 2 s) = 6000 qps, then back to 400 qps,
  // which the capped reservation serves easily.
  mc.open_loop.enabled = true;
  mc.open_loop.phases.push_back({0, Sec(2), 15.0});
  MemcachedServer server(tenant, "mc", mc, Rng(5));
  server.Start(0, Sec(10));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  GuestOs* hog = exp.AddGuest("hog", 1);
  RtaParams hp;
  hp.slice = Ms(6);
  hp.period = Ms(10);
  PeriodicRta hog_rta(hog, "hog", hp);
  hog_rta.Start(0, Sec(10));
  SloController::TenantOptions topts;
  topts.slo = Ms(1);
  topts.max_slice = Us(70);
  exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant), topts);

  exp.Run(Sec(2));
  EXPECT_GT(exp.controller()->stats().control_saturation_events, 0u);
  EXPECT_TRUE(exp.controller()->Saturated(server.task()));
  exp.Run(Sec(6));
  EXPECT_FALSE(exp.controller()->Saturated(server.task()));
  EXPECT_EQ(exp.controller()->unresolved_saturations(), 0u);
}

TEST(SloController, AntiWindupKeepsIntegratorBounded) {
  // Saturate hard (tiny cap, heavy load): the error stays large for
  // thousands of ticks, which must clamp rather than wind up — and once the
  // tenant is saturated the controller goes quiet instead of retrying.
  ControlConfig c = FastControl();
  c.integrator_clamp = 1.0;
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  cfg.control = c;
  Experiment exp(std::move(cfg));
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  MemcachedConfig mc;
  mc.qps = 6000.0;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  MemcachedServer server(tenant, "mc", mc, Rng(5));
  server.Start(0, Sec(5));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  RtaParams hp;
  hp.slice = Ms(6);
  hp.period = Ms(10);
  PeriodicRta hog_rta(hog, "hog", hp);
  hog_rta.Start(0, Sec(5));
  SloController::TenantOptions topts;
  topts.slo = Ms(1);
  topts.max_slice = Us(60);
  exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant), topts);
  exp.Run(Sec(5));
  const ControlStats& s = exp.controller()->stats();
  EXPECT_GT(s.control_windup_clamps, 0u);
  EXPECT_GT(s.control_saturation_events, 0u);
  // Saturation quiesces the INC path: a bounded number of attempts, not one
  // per tick for five seconds.
  EXPECT_LE(s.control_inc_adjustments + s.control_actuation_failures, 20u);
}

// ---- Controller determinism ----

TEST(SloController, SameSeedByteIdenticalReport) {
  auto run = [] {
    ControlRig rig = MakeRig(6000.0, FastControl());
    rig.exp->Run(Sec(3));
    std::ostringstream os;
    rig.exp->PrintReport(os, "control determinism");
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

// ---- Report regression (satellite: byte-identity of default-path runs) ----

TEST(ControlReport, DefaultPathPrintsNoControlSection) {
  // Control compiled in but disabled: the report must not contain a single
  // "control" row, keeping default-path outputs byte-identical to builds
  // that predate the subsystem.
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(2);
  Experiment exp(std::move(cfg));
  GuestOs* g = exp.AddGuest("g", 1);
  MemcachedConfig mc;
  MemcachedServer server(g, "mc", mc, Rng(3));
  server.Start(0, Ms(500));
  exp.Run(Ms(500));
  EXPECT_EQ(exp.controller(), nullptr);
  std::ostringstream os;
  exp.PrintReport(os, "default path");
  EXPECT_EQ(os.str().find("control"), std::string::npos);
}

TEST(ControlReport, ZeroCountersPrintNothingNonzeroPrintSection) {
  ResilienceCounters c;
  std::ostringstream quiet;
  PrintResilience(quiet, c);
  EXPECT_EQ(quiet.str().find("control"), std::string::npos);

  c.control_samples = 1;
  std::ostringstream loud;
  PrintResilience(loud, c);
  EXPECT_NE(loud.str().find("control"), std::string::npos);
  EXPECT_NE(loud.str().find("samples"), std::string::npos);
}

TEST(ControlReport, AccumulateSumsControlCounters) {
  ResilienceCounters a, b;
  a.control_inc_adjustments = 3;
  b.control_inc_adjustments = 4;
  b.control_freezes = 2;
  AccumulateResilience(a, b);
  EXPECT_EQ(a.control_inc_adjustments, 7u);
  EXPECT_EQ(a.control_freezes, 2u);
}

// ---- FaultPlan::ControlFault validation & injection ----

TEST(ControlFaults, ValidateNamesOffendingEntry) {
  FaultPlan plan;
  plan.control_faults.push_back({FaultPlan::ControlFault::Kind::kChannelOutage,
                                 /*vm_index=*/5, Ms(1), Ms(2), Us(200)});
  std::string err = plan.Validate(/*num_pcpus=*/2, /*num_vms=*/2);
  EXPECT_NE(err.find("control_faults[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("vm index"), std::string::npos) << err;

  plan.control_faults.clear();
  plan.control_faults.push_back({FaultPlan::ControlFault::Kind::kChannelOutage,
                                 0, Ms(5), Ms(5), Us(200)});
  err = plan.Validate(2, 2);
  EXPECT_NE(err.find("control_faults[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("window"), std::string::npos) << err;

  plan.control_faults.clear();
  plan.control_faults.push_back({FaultPlan::ControlFault::Kind::kStalePage,
                                 0, Ms(1), Ms(2), 0});
  err = plan.Validate(2, 2);
  EXPECT_NE(err.find("control_faults[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("delay"), std::string::npos) << err;

  plan.control_faults.clear();
  plan.control_faults.push_back({FaultPlan::ControlFault::Kind::kChannelOutage,
                                 0, Ms(1), Ms(5), Us(200)});
  plan.control_faults.push_back({FaultPlan::ControlFault::Kind::kChannelOutage,
                                 0, Ms(4), Ms(6), Us(200)});
  err = plan.Validate(2, 2);
  EXPECT_NE(err.find("control_faults[1]"), std::string::npos) << err;
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;

  // Same window on *different* VMs (or different kinds) is fine.
  plan.control_faults[1].vm_index = 1;
  EXPECT_EQ(plan.Validate(2, 2), "");
}

TEST(ControlFaults, PerVmOutageOnlyHitsTargetVm) {
  FaultPlan faults;
  faults.control_faults.push_back({FaultPlan::ControlFault::Kind::kChannelOutage,
                                   /*vm_index=*/0, Ms(50), Ms(800), Us(200)});
  ControlRig rig = MakeRig(6000.0, FastControl(), faults);
  rig.exp->Run(Sec(5));
  const FaultStats& fs = rig.exp->fault_injector()->stats();
  EXPECT_GT(fs.control_outage_failures, 0u);
  // The targeted tenant froze and re-engaged, exactly like a global outage.
  EXPECT_GT(rig.exp->controller()->stats().control_freezes, 0u);
  EXPECT_FALSE(rig.exp->controller()->Frozen(rig.server->task()));
  // Resilience plumbing carried the counters through.
  ResilienceCounters rc = rig.exp->resilience();
  EXPECT_EQ(rc.control_outage_failures, fs.control_outage_failures);
}

TEST(ControlFaults, StalePageWindowArmsAndRestores) {
  FaultPlan faults;
  faults.control_faults.push_back({FaultPlan::ControlFault::Kind::kStalePage,
                                   /*vm_index=*/0, Ms(100), Ms(600), Us(300)});
  ControlRig rig = MakeRig(6000.0, FastControl(), faults);
  rig.exp->Run(Sec(3));
  const FaultStats& fs = rig.exp->fault_injector()->stats();
  EXPECT_EQ(fs.control_stale_windows, 1u);
  // The run survives the stale window: controller still converges, no
  // quarantine, no freeze cascade.
  EXPECT_GT(rig.exp->controller()->stats().control_inc_adjustments, 0u);
  EXPECT_EQ(rig.exp->dpwrap()->stats().quarantines, 0u);
}

}  // namespace
}  // namespace rtvirt
