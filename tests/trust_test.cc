// Host-side guest trust boundary (DpWrapConfig::guest_trust): the deadline
// sanitizer, the per-VM hypercall token bucket + oscillation detector, the
// reputation/quarantine state machine with hysteresis rehabilitation, and the
// end-to-end byzantine-isolation acceptance criterion the bench prints.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "src/faults/fault_injector.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/churn.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig TrustedConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.dpwrap.guest_trust.enabled = true;
  return cfg;
}

HypercallArgs BwCall(SchedOp op, Vcpu* v, double bw, TimeNs period) {
  HypercallArgs args;
  args.op = op;
  args.vcpu_a = v;
  args.bw_a = Bandwidth::FromDouble(bw);
  args.period_a = period;
  return args;
}

// ---- Deadline sanitizer ----

TEST(DeadlineSanitizer, EgregiouslyStaleDeadlineScoresOneLiePerPublication) {
  ExperimentConfig cfg = TrustedConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.5, Ms(10))),
            kHypercallOk);
  exp.Run(Ms(100));
  // Stale by 50 ms at publish — far beyond the reservation's 10 ms period.
  g->vm()->shared_page().PublishNextDeadline(0, Ms(50));
  exp.Run(Ms(200));
  // Scored exactly once despite many replans rereading the same slot value:
  // re-counting a persisting publication would make rehabilitation impossible.
  EXPECT_EQ(exp.dpwrap()->stats().deadline_lie_rejections, 1u);
  EXPECT_FALSE(exp.dpwrap()->Quarantined(g->vm()));  // One lie is not a pattern.
}

TEST(DeadlineSanitizer, HonestTardinessWithinOnePeriodIsNotScored) {
  ExperimentConfig cfg = TrustedConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.5, Ms(10))),
            kHypercallOk);
  exp.Run(Ms(100));
  // A backlogged guest legitimately publishes its slightly-past pEDF head
  // deadline under transient overload; the sporadic fallback neutralizes the
  // value, but the guest must not be scored for being a victim.
  g->vm()->shared_page().PublishNextDeadline(0, Ms(100) - Ms(5));
  exp.Run(Ms(200));
  EXPECT_EQ(exp.dpwrap()->stats().deadline_lie_rejections, 0u);
  EXPECT_EQ(exp.dpwrap()->stats().deadline_floor_clamps, 0u);
}

TEST(DeadlineSanitizer, ShortHorizonFuturePublicationClampedNotScored) {
  ExperimentConfig cfg = TrustedConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.5, Ms(10))),
            kHypercallOk);
  exp.Run(Ms(100));
  // now + 100 us is below the 250 us min_global_slice floor: a completing job
  // publishing its imminent next release is normal — clamp, count, no score.
  // The reservation nudge forces a replan at the current instant, while the
  // published horizon is still in the future.
  g->vm()->shared_page().PublishNextDeadline(0, Ms(100) + Us(100));
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.6, Ms(10))),
            kHypercallOk);
  exp.Run(Ms(100) + Ms(1));
  EXPECT_GE(exp.dpwrap()->stats().deadline_floor_clamps, 1u);
  EXPECT_EQ(exp.dpwrap()->stats().deadline_lie_rejections, 0u);
  EXPECT_FALSE(exp.dpwrap()->Quarantined(g->vm()));
}

TEST(DeadlineSanitizer, FloorBindingBudgetDistrustsReplanForcer) {
  ExperimentConfig cfg = TrustedConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.5, Ms(10))),
            kHypercallOk);
  // The attack shape from the bench: a fresh publication every 200 us whose
  // horizon (now + 300 us) is still in the future at every read, so each one
  // binds the global slice at its 250 us floor. Once the first replan reads
  // one (the initial quiet slice runs a full kMaxGlobalSlice, 100 ms), the
  // planner is forced to replan at its maximum rate and the budget (128
  // fresh bindings per 100 ms window) trips well inside the second window.
  SharedSchedPage& page = g->vm()->shared_page();
  Simulator& sim = exp.sim();
  std::function<void()> pump = [&] {
    if (sim.Now() >= Ms(180)) {
      return;
    }
    page.PublishNextDeadline(0, sim.Now() + Us(300));
    sim.After(Us(200), pump);
  };
  sim.After(Us(200), pump);
  exp.Run(Ms(200));
  EXPECT_GE(exp.dpwrap()->stats().replan_budget_trips, 1u);
}

// ---- Hypercall rate limiting ----

TEST(RateLimiter, TokenBucketRejectsBeyondBurstWithAgain) {
  ExperimentConfig cfg = TrustedConfig(2);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  // 100 back-to-back garbage calls (the storm injector's shape: a bandwidth
  // no VCPU can hold) against the default burst of 64. The bucket charges
  // the *call*, not its outcome, so nothing is ever reserved.
  int again = 0;
  for (int i = 0; i < 100; ++i) {
    int64_t rc = exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 50.0, Ms(10)));
    if (rc == kHypercallAgain) {
      ++again;
    } else {
      EXPECT_EQ(rc, kHypercallInvalid);
    }
  }
  EXPECT_EQ(again, 36);
  EXPECT_EQ(exp.dpwrap()->stats().hypercall_rate_rejections, 36u);
  // kHypercallAgain is the existing transient-failure code: the channel's
  // retry/degraded machinery handles a throttled guest with no new ABI.
}

TEST(RateLimiter, IncDecOscillationTripsThrashDetector) {
  ExperimentConfig cfg = TrustedConfig(2);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  // Alternating raise/shrink calls, all within the bucket's burst of 64: a
  // guest buying a replan per call without ever holding the bandwidth. The
  // 33rd direction flip (the 34th call) exceeds the budget of 32 per window.
  for (int i = 0; i < 64; ++i) {
    SchedOp op = i % 2 == 0 ? SchedOp::kIncBw : SchedOp::kDecBw;
    double bw = i % 2 == 0 ? 0.2 : 0.1;
    EXPECT_EQ(exp.machine().Hypercall(v, BwCall(op, v, bw, Ms(10))), kHypercallOk) << i;
    EXPECT_EQ(exp.dpwrap()->stats().bw_thrash_trips, i < 33 ? 0u : 1u) << i;
  }
}

// ---- Quarantine state machine ----

TEST(Quarantine, StormQuarantinesFreezesReservationsAndRehabilitates) {
  ExperimentConfig cfg = TrustedConfig(2);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  ASSERT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 0.3, Ms(10))),
            kHypercallOk);
  // Drain the bucket and keep hammering: every rejected call scores a
  // violation, and the score crosses the quarantine threshold mid-storm.
  for (int i = 0; i < 100; ++i) {
    exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 50.0, Ms(10)));
  }
  EXPECT_TRUE(exp.dpwrap()->Quarantined(g->vm()));
  EXPECT_EQ(exp.dpwrap()->stats().quarantines, 1u);

  // Let the token bucket refill (50 ms at 2000/s) so the next call reaches
  // the quarantine check rather than the rate limiter; the score is still far
  // too high for the rehabilitation hysteresis to have released the VM.
  exp.Run(Ms(50));
  ASSERT_TRUE(exp.dpwrap()->Quarantined(g->vm()));

  // Bandwidth-only scheduling: ALL reservation mutations are held — even a
  // shrink, because every accepted change forces an immediate replan, so a
  // quarantined guest alternating cheap DEC calls could keep restarting the
  // global slice and starve its neighbors straight through the quarantine.
  EXPECT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kDecBw, v, 0.1, Ms(10))),
            kHypercallAgain);
  EXPECT_GE(exp.dpwrap()->stats().quarantine_holds, 1u);
  EXPECT_EQ(exp.dpwrap()->ReservedBw(v), Bandwidth::FromDouble(0.3))
      << "the VM keeps exactly what admission already granted";

  // Hysteresis rehabilitation: the storm stops, the score decays, and after
  // enough consecutive clean scans the VM is released and served again.
  exp.Run(Sec(1));
  EXPECT_FALSE(exp.dpwrap()->Quarantined(g->vm()));
  EXPECT_EQ(exp.dpwrap()->stats().quarantine_releases, 1u);
  EXPECT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kDecBw, v, 0.1, Ms(10))),
            kHypercallOk);
}

// The deadline filter runs in global-id order, and a quarantine it raises
// takes effect at once: when VCPU 0's lie pushes its VM over the threshold
// in the middle of a replan, VCPU 1 of the same VM is planned with the
// sporadic worst case in that same replan, not only in the one the
// quarantine schedules.
TEST(Quarantine, RaisedMidReplanDistrustsTheVmsLaterVcpus) {
  Experiment exp(TrustedConfig(2));
  GuestOs* g = exp.AddGuest("vm", 2);
  Vcpu* v0 = g->vm()->vcpu(0);
  Vcpu* v1 = g->vm()->vcpu(1);
  ASSERT_EQ(exp.machine().Hypercall(v0, BwCall(SchedOp::kIncBw, v0, 0.3, Ms(10))),
            kHypercallOk);
  ASSERT_EQ(exp.machine().Hypercall(v1, BwCall(SchedOp::kIncBw, v1, 0.3, Ms(10))),
            kHypercallOk);
  exp.Run(Ms(30));
  // Drain the full bucket (64 calls), then score 7 rate violations: one
  // below the quarantine threshold of 8.
  for (int i = 0; i < 64 + 7; ++i) {
    exp.machine().Hypercall(v0, BwCall(SchedOp::kIncBw, v0, 0.3, Ms(10)));
  }
  ASSERT_EQ(exp.dpwrap()->stats().hypercall_rate_rejections, 7u);
  ASSERT_FALSE(exp.dpwrap()->Quarantined(g->vm()));
  // VCPU 0 lies (a deadline a whole period stale when published); VCPU 1
  // publishes an honest deadline 2 ms ahead, which would bind the slice.
  g->vm()->shared_page().PublishNextDeadline(0, Ms(30) - Ms(10) - 1);
  g->vm()->shared_page().PublishNextDeadline(1, Ms(32));
  // The calls above left a deferred replan pending at t=30 ms; this closure
  // runs right after it, before the replan the quarantine schedules.
  uint64_t replans = exp.dpwrap()->replans();
  TimeNs deadline = 0;
  exp.sim().At(Ms(30), [&] {
    EXPECT_EQ(exp.dpwrap()->replans(), replans + 1);
    deadline = exp.dpwrap()->plan().end;
  });
  exp.Run(Ms(30));
  EXPECT_TRUE(exp.dpwrap()->Quarantined(g->vm()));
  EXPECT_EQ(exp.dpwrap()->stats().deadline_lie_rejections, 1u);
  EXPECT_EQ(deadline, Ms(40)) << "VCPU 1's deadline was trusted after its VM's quarantine";
}

TEST(Quarantine, DisabledTrustLeavesEverythingUntouched) {
  ExperimentConfig cfg = TrustedConfig(2);
  cfg.dpwrap.guest_trust.enabled = false;  // The default.
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(exp.machine().Hypercall(v, BwCall(SchedOp::kIncBw, v, 50.0, Ms(10))),
              kHypercallInvalid);
  }
  g->vm()->shared_page().PublishNextDeadline(0, Ms(1));
  exp.Run(Ms(50));
  EXPECT_EQ(exp.dpwrap()->stats().hypercall_rate_rejections, 0u);
  EXPECT_EQ(exp.dpwrap()->stats().deadline_lie_rejections, 0u);
  EXPECT_EQ(exp.dpwrap()->stats().quarantines, 0u);
  EXPECT_FALSE(exp.dpwrap()->Quarantined(g->vm()));
}

// ---- End-to-end byzantine isolation (the bench's acceptance criterion) ----

struct AttackOutcome {
  uint64_t misses = 0;
  ResilienceCounters rc;
};

// Compressed bench/byzantine_isolation: two 6-VCPU HIGH-criticality victim
// VMs on lean slack, one adversarial VM running the full campaign repertoire
// (deadline lies + hypercall storm + bandwidth thrash) in [1 s, 3 s).
AttackOutcome RunCampaign(bool attack, bool hardened) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 4;
  cfg.channel.budget_slack = Us(100);  // Lean consolidation margin.
  constexpr TimeNs kRun = Sec(4);
  if (hardened) {
    cfg.dpwrap.guest_trust.enabled = true;
    cfg.audit.enabled = true;
  }
  if (attack) {
    for (auto kind : {FaultPlan::AdversarialGuest::Kind::kDeadlineLies,
                      FaultPlan::AdversarialGuest::Kind::kHypercallStorm,
                      FaultPlan::AdversarialGuest::Kind::kBandwidthThrash}) {
      FaultPlan::AdversarialGuest a;
      a.kind = kind;
      a.vm_index = 2;
      a.start = Sec(1);
      a.end = Sec(3);
      a.period = kind == FaultPlan::AdversarialGuest::Kind::kHypercallStorm ? Us(100)
                 : kind == FaultPlan::AdversarialGuest::Kind::kDeadlineLies ? Us(200)
                                                                            : Us(500);
      a.thrash_high = Bandwidth::FromDouble(0.15);
      cfg.faults.adversarial_guests.push_back(a);
    }
  }

  Experiment exp(cfg);
  GuestOs* victim_a = exp.AddGuest("victim-a", 6);
  GuestOs* victim_b = exp.AddGuest("victim-b", 6);
  GuestOs* adversary = exp.AddGuest("adversary", 2);

  ChurnConfig tier;
  tier.experiment_len = kRun;
  tier.min_episode = kRun + Sec(10);
  tier.max_episode = kRun + Sec(10);
  tier.max_gap = Ms(100);
  tier.idle_prob = 0.0;
  tier.criticality = Criticality::kHigh;
  tier.profile = RtaParams{Us(3000), Ms(10)};
  tier.admission_retry = Ms(50);
  DeadlineMonitor victims;
  ChurnDriver churn_a(victim_a, tier, Rng(311), &victims);
  ChurnDriver churn_b(victim_b, tier, Rng(312), &victims);
  churn_a.Start();
  churn_b.Start();

  PeriodicRta cover(adversary, "cover", RtaParams{Ms(1), Ms(10)});
  cover.Start(0, kRun);
  adversary->CreateBackgroundTask("hog");

  exp.Run(kRun);
  AttackOutcome out;
  out.misses = victims.total_misses();
  out.rc = exp.resilience();
  return out;
}

TEST(ByzantineAcceptance, HardenedMatchesBaselineAndNaiveMeasurablySuffers) {
  AttackOutcome baseline = RunCampaign(/*attack=*/false, /*hardened=*/false);
  AttackOutcome naive = RunCampaign(/*attack=*/true, /*hardened=*/false);
  AttackOutcome hardened = RunCampaign(/*attack=*/true, /*hardened=*/true);

  // The no-attack profile is clean, and the boundary restores it exactly:
  // zero extra HIGH-tier victim misses under the full campaign.
  EXPECT_EQ(baseline.misses, 0u);
  EXPECT_EQ(hardened.misses, baseline.misses);

  // The same campaign without the boundary measurably hurts the victims.
  EXPECT_GT(naive.misses, 0u);

  // Every defense fired and the isolation invariant held on every audit scan.
  EXPECT_GT(hardened.rc.deadline_lie_rejections, 0u);
  EXPECT_GT(hardened.rc.hypercall_rate_rejections, 0u);
  EXPECT_GE(hardened.rc.quarantines, 1u);
  EXPECT_GT(hardened.rc.audit_checks, 0u);
  EXPECT_EQ(hardened.rc.isolation_violations, 0u);
  EXPECT_EQ(hardened.rc.audit_violations, 0u);
}

}  // namespace
}  // namespace rtvirt
