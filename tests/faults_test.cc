// Fault-injection framework and degraded-mode recovery: deterministic fault
// traces, bounded retry, degraded fallback + virtual-time repair, VM crash
// semantics, the host watchdog, and shared-page staleness.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig ResilientConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.channel.max_retries = 2;
  cfg.channel.degraded_fallback = true;
  return cfg;
}

// ---- Determinism (the acceptance criterion of the fault subsystem) ----

struct TraceSummary {
  uint64_t completed = 0;
  uint64_t misses = 0;
  uint64_t injected = 0;
  uint64_t spikes = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
  uint64_t recoveries = 0;
  uint64_t crashes = 0;
  uint64_t reclaims = 0;

  auto Tie() const {
    return std::tie(completed, misses, injected, spikes, retries, degraded, recoveries,
                    crashes, reclaims);
  }
};

TraceSummary RunFaultedScenario(uint64_t fault_seed) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.faults.seed = fault_seed;
  cfg.faults.hypercall_fail_prob = 0.2;
  cfg.faults.hypercall_drop_prob = 0.05;
  cfg.faults.hypercall_spike_prob = 0.1;
  cfg.faults.hypercall_spike_latency = Us(100);
  cfg.faults.hypercall_outages.push_back({Ms(300), Ms(350)});
  cfg.faults.shared_page_visibility_delay = Us(100);
  // Crash between churn boundaries so the anchor is registered when it dies.
  cfg.faults.vm_failures.push_back({/*vm_index=*/1, /*crash_at=*/Ms(520),
                                    /*restart_at=*/Ms(700)});
  cfg.dpwrap.watchdog.reclaim_crashed = true;

  Experiment exp(cfg);
  DeadlineMonitor mon;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int v = 0; v < 2; ++v) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(v), 1);
    // One long-lived anchor RTA per VM (drives completions and is the
    // reservation the watchdog reclaims when vm1 crashes)...
    auto anchor = std::make_unique<PeriodicRta>(g, "anchor" + std::to_string(v),
                                                RtaParams{Ms(2), Ms(10), false});
    mon.Watch(anchor->task());
    anchor->Start(0, Sec(2) - Ms(10));
    rtas.push_back(std::move(anchor));
    // ...plus a chain of short-lived RTAs whose register/unregister churn
    // generates enough hypercall volume for the fault draws to bite.
    for (int i = 0; i < 18; ++i) {
      auto churn = std::make_unique<PeriodicRta>(
          g, "churn" + std::to_string(v) + "." + std::to_string(i),
          RtaParams{Ms(1), Ms(10), false});
      mon.Watch(churn->task());
      churn->Start(Ms(50 * i + 5), Ms(50 * i + 45));
      rtas.push_back(std::move(churn));
    }
  }
  exp.Run(Sec(2));

  ResilienceCounters rc = exp.resilience();
  TraceSummary s;
  s.completed = mon.total_completed();
  s.misses = mon.total_misses();
  s.injected = rc.injected_failures + rc.injected_drops + rc.outage_failures;
  s.spikes = rc.injected_spikes;
  s.retries = rc.retries;
  s.degraded = rc.degraded_entries;
  s.recoveries = rc.recoveries;
  s.crashes = rc.vm_crashes;
  s.reclaims = rc.watchdog_reclaims;
  return s;
}

TEST(FaultDeterminism, SameSeedSamePlanSameTrace) {
  TraceSummary a = RunFaultedScenario(/*fault_seed=*/123);
  TraceSummary b = RunFaultedScenario(/*fault_seed=*/123);
  EXPECT_EQ(a.Tie(), b.Tie());
  // Sanity: the scenario actually exercised the machinery.
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.injected, 0u);
  EXPECT_GT(a.retries, 0u);
  EXPECT_EQ(a.crashes, 1u);
  EXPECT_GE(a.reclaims, 1u);
}

TEST(FaultDeterminism, DifferentSeedDifferentFaultDraws) {
  TraceSummary a = RunFaultedScenario(/*fault_seed=*/123);
  TraceSummary b = RunFaultedScenario(/*fault_seed=*/987);
  // Hundreds of Bernoulli draws at p in [0.05, 0.2]: identical totals across
  // independent streams would be a one-in-many-thousands coincidence.
  EXPECT_NE(std::make_tuple(a.injected, a.spikes, a.retries),
            std::make_tuple(b.injected, b.spikes, b.retries));
}

// ---- Bounded retry ----

TEST(ChannelRetry, RetryRecoversSingleTransientFailure) {
  ExperimentConfig cfg = ResilientConfig(2);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  int calls = 0;
  exp.machine().SetHypercallInterceptor([&calls](Vcpu*, const HypercallArgs&) {
    Machine::HypercallFault f;
    if (++calls == 1) {
      f.action = Machine::HypercallFault::Action::kFail;
    }
    return f;
  });
  Task* t = g->CreateTask("t");
  EXPECT_EQ(g->SchedSetAttr(t, RtaParams{Ms(2), Ms(10), false}), kGuestOk);
  const ChannelStats& st = exp.ChannelOf(g)->stats();
  EXPECT_EQ(st.transient_failures, 1u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.retry_successes, 1u);
  EXPECT_EQ(st.backoff_time_ns, static_cast<uint64_t>(Us(50)));
  // The backoff was charged to the machine's hypercall overhead account.
  EXPECT_EQ(exp.machine().overhead().hypercall_time, Us(50));
}

TEST(ChannelRetry, LegacyNoRetrySurfacesFirstFailure) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(2);  // Legacy channel: max_retries = 0.
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  exp.machine().SetHypercallInterceptor([](Vcpu*, const HypercallArgs&) {
    Machine::HypercallFault f;
    f.action = Machine::HypercallFault::Action::kFail;
    return f;
  });
  Task* t = g->CreateTask("t");
  EXPECT_EQ(g->SchedSetAttr(t, RtaParams{Ms(2), Ms(10), false}), kGuestErrBusy);
  EXPECT_FALSE(t->registered());
  const ChannelStats& st = exp.ChannelOf(g)->stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.transient_failures, 1u);
  EXPECT_FALSE(exp.ChannelOf(g)->degraded(g->vm()->vcpu(0)));
}

// Admission's reshuffle lowers some VCPUs' reservations, then raises
// others' in VCPU order. When the channel refuses a raise, every VCPU gets
// back the reservation its unchanged pin set derives and no task moves, so
// no VCPU runs RTAs above its grant. Case 1: first-fit-decreasing packs the
// newcomer with one 0.4 task and 0.5 with the other, so VCPU 0 drops to 0.4
// and VCPU 1's raise to 0.9 is refused. Case 2: it packs the newcomer with
// one 0.3 task and each 0.6 task with another, so VCPU 0 drops to 0.3,
// VCPU 1's raise to 0.9 is granted and VCPU 2's is refused.
TEST(ChannelRetry, RefusedReshuffleIncreaseMovesNoTask) {
  struct Case {
    std::vector<TimeNs> slices;  // Registered in order, all at a 10 ms period.
    std::vector<int> placement;  // First fit's VCPU for each.
    int refusing_vcpu;
    TimeNs newcomer;             // Fits no VCPU as placed.
  };
  for (const Case& k : {Case{{Ms(4), Ms(4), Ms(5)}, {0, 0, 1}, 1, Us(5500)},
                        Case{{Ms(3), Ms(3), Ms(3), Ms(6), Ms(6)}, {0, 0, 0, 1, 2}, 2, Us(6500)}}) {
    const int vcpus = k.placement.back() + 1;
    SCOPED_TRACE(vcpus);
    ExperimentConfig cfg = ResilientConfig(vcpus);
    cfg.channel.budget_slack = 0;
    cfg.audit.enabled = true;
    Experiment exp(cfg);
    GuestOs* g = exp.AddGuest("vm", vcpus);
    std::vector<Task*> tasks;
    for (TimeNs slice : k.slices) {
      tasks.push_back(g->CreateTask("t" + std::to_string(tasks.size())));
      ASSERT_EQ(g->SchedSetAttr(tasks.back(), RtaParams{slice, Ms(10)}), kGuestOk);
    }
    auto placement = [&] {
      std::vector<int> out;
      for (const Task* t : tasks) {
        out.push_back(t->vcpu_index());
      }
      return out;
    };
    ASSERT_EQ(placement(), k.placement);

    // From here on every call the refusing VCPU makes fails, retries included.
    Vcpu* refusing = g->vm()->vcpu(k.refusing_vcpu);
    exp.machine().SetHypercallInterceptor([refusing](Vcpu* caller, const HypercallArgs&) {
      Machine::HypercallFault f;
      if (caller == refusing) {
        f.action = Machine::HypercallFault::Action::kFail;
      }
      return f;
    });
    Task* d = g->CreateTask("d");
    EXPECT_EQ(g->SchedSetAttr(d, RtaParams{k.newcomer, Ms(10)}), kGuestErrBusy);
    EXPECT_EQ(placement(), k.placement);
    // Zero slack: the host holds exactly what each pin set derives.
    for (int i = 0; i < vcpus; ++i) {
      EXPECT_EQ(exp.dpwrap()->ReservedBw(g->vm()->vcpu(i)), g->VcpuReservedBw(i)) << "vcpu " << i;
    }
    exp.Run(Ms(100));
    EXPECT_GT(exp.auditor()->stats().audit_checks, 0u);
    EXPECT_EQ(exp.auditor()->stats().audit_violations, 0u);
  }
}

// ---- Degraded mode ----

TEST(DegradedMode, LocalAdmissionWithinGrantThenRepair) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.channel.max_retries = 1;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* vcpu = g->vm()->vcpu(0);
  RtvirtGuestChannel* ch = exp.ChannelOf(g);

  bool fail_all = false;
  exp.machine().SetHypercallInterceptor([&fail_all](Vcpu*, const HypercallArgs&) {
    Machine::HypercallFault f;
    if (fail_all) {
      f.action = Machine::HypercallFault::Action::kFail;
    }
    return f;
  });

  // Healthy registration of two RTAs.
  Task* a = g->CreateTask("a");
  Task* b = g->CreateTask("b");
  ASSERT_EQ(g->SchedSetAttr(a, RtaParams{Ms(2), Ms(10), false}), kGuestOk);
  ASSERT_EQ(g->SchedSetAttr(b, RtaParams{Ms(1), Ms(10), false}), kGuestOk);
  Bandwidth granted = exp.dpwrap()->ReservedBw(vcpu);
  g->ReleaseJob(a, Ms(2), Ms(10));
  ASSERT_EQ(g->vm()->shared_page().next_deadline(0), Ms(10));

  // Channel dies. Unregistering b cannot reach the host (DEC is lost), so the
  // channel degrades: deadline sharing stops.
  fail_all = true;
  ASSERT_EQ(g->SchedUnregister(b), kGuestOk);
  EXPECT_TRUE(ch->degraded(vcpu));
  EXPECT_EQ(ch->stats().degraded_entries, 1u);
  EXPECT_EQ(g->vm()->shared_page().next_deadline(0), kTimeNever);
  // The host still holds the old (larger) reservation — safe, just stale.
  EXPECT_EQ(exp.dpwrap()->ReservedBw(vcpu), granted);

  // Local admission: re-admitting b fits inside the acknowledged grant, so it
  // succeeds without a channel round-trip. A larger task does not fit.
  EXPECT_EQ(g->SchedSetAttr(b, RtaParams{Ms(1), Ms(10), false}), kGuestOk);
  Task* c = g->CreateTask("c");
  EXPECT_EQ(g->SchedSetAttr(c, RtaParams{Ms(5), Ms(10), false}), kGuestErrBusy);

  // Channel heals: the repair loop installs the conservative standalone
  // reservation, recovers, and republishes the cached deadline. The first
  // repair tick fires 50 us after EnterDegraded; stop before job a completes
  // so the republished deadline is still on the page.
  fail_all = false;
  exp.Run(Us(100));
  EXPECT_FALSE(ch->degraded(vcpu));
  EXPECT_EQ(ch->stats().recoveries, 1u);
  EXPECT_GE(ch->stats().repair_attempts, 1u);
  Bandwidth rta_total = Bandwidth::FromSlicePeriod(Ms(3), Ms(10));  // a + b.
  EXPECT_EQ(exp.dpwrap()->ReservedBw(vcpu), ch->ConservativeBw(rta_total, Ms(10)));
  EXPECT_EQ(g->vm()->shared_page().next_deadline(0), Ms(10));
}

TEST(DegradedMode, ConservativeBwUsesFullSlack) {
  ExperimentConfig cfg = ResilientConfig(1);
  cfg.channel.budget_slack = Us(500);
  Experiment exp(cfg);
  RtvirtGuestChannel ch(&exp.machine(), cfg.channel);
  // 500 us period: WithSlack trims the pad to 50 us, ConservativeBw does not.
  Bandwidth bw = Bandwidth::FromSlicePeriod(Us(100), Us(500));
  EXPECT_EQ(ch.WithSlack(bw, Us(500)) - bw, Bandwidth::FromSlicePeriod(Us(50), Us(500)));
  EXPECT_EQ(ch.ConservativeBw(bw, Us(500)), Bandwidth::One());  // 0.2 + 1.0, capped.
}

// ---- VM crash semantics ----

TEST(VmCrash, CrashBlocksVcpusDropsHypercallsAndRestartRevives) {
  ExperimentConfig cfg = ResilientConfig(2);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  v->Wake();
  ASSERT_FALSE(v->blocked());

  exp.machine().CrashVm(g->vm());
  EXPECT_TRUE(g->vm()->crashed());
  EXPECT_TRUE(v->blocked());
  v->Wake();
  EXPECT_TRUE(v->blocked()) << "wake must be a no-op while the VM is crashed";

  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = v;
  args.bw_a = Bandwidth::FromDouble(0.1);
  args.period_a = Ms(10);
  EXPECT_EQ(exp.machine().Hypercall(v, args), kHypercallAgain);

  exp.machine().RestartVm(g->vm());
  EXPECT_FALSE(g->vm()->crashed());
  v->Wake();
  EXPECT_FALSE(v->blocked());
  EXPECT_EQ(exp.machine().Hypercall(v, args), kHypercallOk);
}

TEST(VmCrash, GuestResetDropsTasksAndJobReleasesAreLost) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.faults.vm_failures.push_back({/*vm_index=*/0, /*crash_at=*/Ms(35),
                                    /*restart_at=*/kTimeNever});
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  DeadlineMonitor mon;
  PeriodicRta rta(g, "t", RtaParams{Ms(2), Ms(10), false});
  mon.Watch(rta.task());
  rta.Start(0, Sec(1));
  exp.Run(Ms(200));
  // ~3 jobs before the crash at 35 ms; releases after it are dropped.
  EXPECT_GT(mon.total_completed(), 0u);
  EXPECT_LE(mon.total_completed(), 4u);
  EXPECT_FALSE(rta.task()->registered());
  EXPECT_EQ(exp.resilience().vm_crashes, 1u);
}

// ---- Host watchdog ----

TEST(Watchdog, ReclaimsOrphanedReservationsOfCrashedVm) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.faults.vm_failures.push_back({/*vm_index=*/0, /*crash_at=*/Ms(5),
                                    /*restart_at=*/kTimeNever});
  cfg.dpwrap.watchdog.reclaim_crashed = true;
  Experiment exp(cfg);
  GuestOs* doomed = exp.AddGuest("doomed", 1);
  GuestOs* healthy = exp.AddGuest("healthy", 1);
  Task* td = doomed->CreateTask("td");
  Task* th = healthy->CreateTask("th");
  ASSERT_EQ(doomed->SchedSetAttr(td, RtaParams{Ms(3), Ms(10), false}), kGuestOk);
  ASSERT_EQ(healthy->SchedSetAttr(th, RtaParams{Ms(2), Ms(10), false}), kGuestOk);
  Bandwidth healthy_bw = exp.dpwrap()->ReservedBw(healthy->vm()->vcpu(0));
  ASSERT_GT(exp.dpwrap()->ReservedBw(doomed->vm()->vcpu(0)), Bandwidth::Zero());

  exp.Run(Ms(100));
  // The crashed VM's reservation is gone, the healthy VM's is untouched.
  EXPECT_EQ(exp.dpwrap()->ReservedBw(doomed->vm()->vcpu(0)), Bandwidth::Zero());
  EXPECT_EQ(exp.dpwrap()->ReservedBw(healthy->vm()->vcpu(0)), healthy_bw);
  EXPECT_EQ(exp.dpwrap()->total_reserved(), healthy_bw);
  EXPECT_GE(exp.dpwrap()->stats().watchdog_reclaims, 1u);
}

TEST(Watchdog, FreshnessHorizonDistrustsStaleDeadlines) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.dpwrap.watchdog.freshness_horizon = Ms(5);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = v;
  args.bw_a = Bandwidth::FromDouble(0.5);
  args.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(v, args), kHypercallOk);
  // One publication at t=0, never refreshed: replans past the horizon must
  // fall back to the sporadic worst case instead of trusting it.
  g->vm()->shared_page().PublishNextDeadline(0, Ms(500));
  exp.Run(Ms(150));
  EXPECT_GE(exp.dpwrap()->stats().stale_rejections, 1u);
}

// ---- Shared-page staleness via the injector ----

TEST(Staleness, InjectorDelaysGuestPublicationVisibility) {
  ExperimentConfig cfg = ResilientConfig(1);
  cfg.faults.shared_page_visibility_delay = Us(200);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  exp.Run(Ms(1));  // Arms the injector (sets the delay on the VM's page).
  SharedSchedPage& page = g->vm()->shared_page();
  ASSERT_EQ(page.visibility_delay(), Us(200));

  page.PublishNextDeadline(0, Ms(9));
  EXPECT_EQ(page.next_deadline(0), kTimeNever) << "write still in the coherence window";
  EXPECT_EQ(page.last_publish_time(0), -1);
  exp.Run(Ms(1) + Us(200));
  EXPECT_EQ(page.next_deadline(0), Ms(9));
  EXPECT_EQ(page.last_publish_time(0), Ms(1));
}

// ---- Plan validation (trust-boundary PR) ----
//
// Every VM-indexed event class is bounds-checked against the machine's VM
// count, and the error names the offending entry — a misconfigured sweep
// fails at Arm() with a usable message instead of dereferencing a missing VM
// mid-run.

TEST(PlanValidation, AdversarialGuestVmIndexOutOfRangeNamesEntry) {
  FaultPlan plan;
  FaultPlan::AdversarialGuest ok;
  ok.kind = FaultPlan::AdversarialGuest::Kind::kDeadlineLies;
  ok.vm_index = 0;
  ok.start = Ms(1);
  ok.end = Ms(2);
  plan.adversarial_guests.push_back(ok);
  FaultPlan::AdversarialGuest bad = ok;
  bad.vm_index = 7;
  plan.adversarial_guests.push_back(bad);
  std::string err = plan.Validate(/*num_pcpus=*/4, /*num_vms=*/2);
  EXPECT_NE(err.find("adversarial_guests[1]"), std::string::npos) << err;
  EXPECT_NE(err.find("vm index out of range"), std::string::npos) << err;
  bad.vm_index = -1;
  plan.adversarial_guests.back() = bad;
  err = plan.Validate(/*num_pcpus=*/4, /*num_vms=*/-1);  // Unknown VM count.
  EXPECT_NE(err.find("adversarial_guests[1]"), std::string::npos)
      << "negative indices are rejected even when the VM count is unknown: " << err;
}

TEST(PlanValidation, VmFailureIndexOutOfRangeNamesEntry) {
  FaultPlan plan;
  plan.vm_failures.push_back({/*vm_index=*/3, /*crash_at=*/Ms(1), /*restart_at=*/Ms(2)});
  std::string err = plan.Validate(/*num_pcpus=*/4, /*num_vms=*/2);
  EXPECT_NE(err.find("vm_failures[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("vm index out of range"), std::string::npos) << err;
}

TEST(PlanValidation, AdversarialCampaignShapeChecks) {
  FaultPlan plan;
  FaultPlan::AdversarialGuest a;
  a.kind = FaultPlan::AdversarialGuest::Kind::kHypercallStorm;
  a.vm_index = 0;
  a.start = Ms(5);
  a.end = Ms(5);  // Empty window.
  plan.adversarial_guests.push_back(a);
  EXPECT_NE(plan.Validate(4, 1).find("empty or negative campaign window"),
            std::string::npos);
  plan.adversarial_guests[0].end = Ms(10);
  plan.adversarial_guests[0].period = 0;  // No cadence.
  EXPECT_NE(plan.Validate(4, 1).find("non-positive event cadence"), std::string::npos);
  plan.adversarial_guests[0].period = Us(100);
  plan.adversarial_guests[0].kind = FaultPlan::AdversarialGuest::Kind::kBandwidthThrash;
  plan.adversarial_guests[0].thrash_low = Bandwidth::FromDouble(0.3);
  plan.adversarial_guests[0].thrash_high = Bandwidth::FromDouble(0.1);  // Out of order.
  EXPECT_NE(plan.Validate(4, 1).find("thrash bandwidths out of order"), std::string::npos);
  plan.adversarial_guests[0].thrash_high = Bandwidth::FromDouble(0.5);
  EXPECT_EQ(plan.Validate(4, 1), "");
}

// ---- In-call retry backoff saturation ----

// Regression: the synchronous retry loop used to double the charged backoff
// without bound — a long kHypercallAgain streak (a rate-limited or
// quarantined VM) with a generous retry budget would charge geometrically
// growing virtual time to the hypercall account. The loop now saturates at
// repair_backoff_max like the asynchronous repair path.
TEST(ChannelRetry, InCallBackoffSaturatesAtRepairMax) {
  ExperimentConfig cfg = ResilientConfig(2);
  cfg.channel.max_retries = 6;
  cfg.channel.repair_backoff_max = Us(200);
  cfg.channel.degraded_fallback = false;  // Isolate the in-call retry loop.
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  exp.machine().SetHypercallInterceptor([](Vcpu*, const HypercallArgs&) {
    Machine::HypercallFault f;
    f.action = Machine::HypercallFault::Action::kFail;  // Every call: kAgain.
    return f;
  });
  Task* t = g->CreateTask("t");
  EXPECT_EQ(g->SchedSetAttr(t, RtaParams{Ms(2), Ms(10), false}), kGuestErrBusy);
  const ChannelStats& st = exp.ChannelOf(g)->stats();
  EXPECT_EQ(st.retries, 6u);
  // Charged intervals: 50 + 100 + 200 + 200 + 200 + 200 — capped, not 50<<k.
  EXPECT_EQ(st.backoff_time_ns, static_cast<uint64_t>(Us(950)));
}

}  // namespace
}  // namespace rtvirt
