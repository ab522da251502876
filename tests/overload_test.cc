// Mixed-criticality overload control tests: elastic compression (including
// backlog truncation), criticality-ordered shedding, the host pressure
// signal with reason-coded admissions, hysteresis-driven recovery (resume +
// re-inflation), and the inert-when-disabled guarantee.

#include <gtest/gtest.h>

#include "src/hv/hypercall.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/rtvirt/dpwrap.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig PureConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.channel.budget_slack = 0;  // Exact reservations: admission math is exact.
  cfg.dpwrap.pick_cost = 0;
  cfg.dpwrap.replan_cost_base = 0;
  cfg.dpwrap.replan_cost_per_log = 0;
  return cfg;
}

GuestConfig OverloadGuest() {
  GuestConfig g;
  g.overload.enabled = true;
  return g;
}

RtaParams Elastic(TimeNs slice, TimeNs period, TimeNs min_slice, Criticality crit) {
  RtaParams p{slice, period};
  p.criticality = crit;
  p.min_slice = min_slice;
  return p;
}

// A HIGH newcomer that does not fit compresses an elastic LOW reservation to
// its minimum instead of being rejected.
TEST(OverloadAdmission, CompressesElasticLowerCriticality) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2, OverloadGuest());
  PeriodicRta lo(g, "lo", Elastic(Ms(8), Ms(10), Ms(4), Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(5), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Sec(1));
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(lo.admission_result(), kGuestOk);
  ASSERT_EQ(hi.admission_result(), kGuestOk);
  EXPECT_TRUE(lo.task()->compressed());
  EXPECT_EQ(lo.task()->EffectiveSlice(), Ms(4));
  EXPECT_GE(g->overload_stats().compressions, 1u);
  EXPECT_GE(g->overload_stats().overload_admissions, 1u);
}

// Compression truncates the queued backlog: jobs released at the full slice
// before the squeeze must not carry pre-compression work past it, or the
// compressed reservation (supply == compressed demand) could never drain
// them and every later job would inherit the tardiness.
TEST(OverloadAdmission, CompressionTruncatesQueuedWork) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2, OverloadGuest());
  DeadlineMonitor mon;
  PeriodicRta lo(g, "lo", Elastic(Ms(8), Ms(10), Ms(4), Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(5), Ms(10), 0, Criticality::kHigh));
  lo.task()->set_observer(&mon);
  lo.Start(0, Sec(1));
  hi.Start(Ms(105), Sec(1));  // Mid-period: a full-slice LOW job is in flight.
  exp.Run(Sec(1));
  ASSERT_TRUE(lo.task()->compressed());
  // After the one transitional period the compressed task must be back to
  // meeting deadlines; allow the single in-flight job to be the only miss.
  EXPECT_GE(mon.total_completed(), 80u);
  EXPECT_LE(mon.total_misses(), 1u);
}

// When compression cannot free enough, the lowest-criticality task is shed
// (suspended, reservation released) and its job releases are dropped.
TEST(OverloadAdmission, ShedsLowestCriticalityWhenCompressionInsufficient) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2, OverloadGuest());
  PeriodicRta lo(g, "lo", Elastic(Ms(6), Ms(10), 0, Criticality::kLow));  // Inelastic.
  PeriodicRta hi(g, "hi", Elastic(Ms(8), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Sec(1));
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(500));
  ASSERT_EQ(lo.admission_result(), kGuestOk);
  ASSERT_EQ(hi.admission_result(), kGuestOk);
  EXPECT_TRUE(lo.task()->shed());
  EXPECT_EQ(g->overload_stats().sheds, 1u);
  EXPECT_GT(g->overload_stats().shed_job_drops, 0u);
}

// Degradation at admission only sacrifices *strictly lower* criticality: a
// LOW newcomer cannot displace anything, and an equal-criticality newcomer
// cannot displace its peers.
TEST(OverloadAdmission, NeverSacrificesEqualOrHigherCriticality) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2, OverloadGuest());
  PeriodicRta a(g, "a", Elastic(Ms(6), Ms(10), Ms(3), Criticality::kMed));
  PeriodicRta b(g, "b", Elastic(Ms(8), Ms(10), 0, Criticality::kMed));
  a.Start(0, Sec(1));
  b.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(a.admission_result(), kGuestOk);
  EXPECT_EQ(b.admission_result(), kGuestErrBusy);  // MED cannot squeeze MED.
  EXPECT_FALSE(a.task()->compressed());
  EXPECT_EQ(g->overload_stats().compressions, 0u);
  EXPECT_EQ(g->overload_stats().sheds, 0u);
}

// The same three admissions on a single-VCPU guest, where the newcomer fits
// no VCPU locally (first fit and reshuffle both miss) rather than being
// refused by the host: degradation frees local room, then INC_BW is issued.
TEST(OverloadAdmission, NoLocalFitCompressesElasticLowerCriticality) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1, OverloadGuest());
  PeriodicRta lo(g, "lo", Elastic(Ms(8), Ms(10), Ms(4), Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(5), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Sec(1));
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(lo.admission_result(), kGuestOk);
  ASSERT_EQ(hi.admission_result(), kGuestOk);
  EXPECT_TRUE(lo.task()->compressed());
  EXPECT_EQ(lo.task()->EffectiveSlice(), Ms(4));
  EXPECT_EQ(g->overload_stats().compressions, 1u);
  EXPECT_EQ(g->overload_stats().overload_admissions, 1u);
}

TEST(OverloadAdmission, NoLocalFitShedsInelasticLowerCriticality) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1, OverloadGuest());
  PeriodicRta lo(g, "lo", Elastic(Ms(6), Ms(10), 0, Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(8), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Sec(1));
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(lo.admission_result(), kGuestOk);
  ASSERT_EQ(hi.admission_result(), kGuestOk);
  EXPECT_TRUE(lo.task()->shed());
  EXPECT_EQ(g->overload_stats().sheds, 1u);
  EXPECT_EQ(g->overload_stats().overload_admissions, 1u);
}

TEST(OverloadAdmission, NoLocalFitNeverSacrificesEqualCriticality) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1, OverloadGuest());
  PeriodicRta a(g, "a", Elastic(Ms(6), Ms(10), Ms(3), Criticality::kMed));
  PeriodicRta b(g, "b", Elastic(Ms(8), Ms(10), 0, Criticality::kMed));
  a.Start(0, Sec(1));
  b.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(a.admission_result(), kGuestOk);
  EXPECT_EQ(b.admission_result(), kGuestErrBusy);
  EXPECT_FALSE(a.task()->compressed());
  EXPECT_EQ(g->overload_stats().compressions, 0u);
  EXPECT_EQ(g->overload_stats().overload_admissions, 0u);
}

// With every overload knob at its default (off), admission failure stays a
// plain rejection: nothing is compressed, shed, or counted.
TEST(OverloadAdmission, DisabledKnobsKeepBinaryAdmission) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2);  // Default GuestConfig: overload off.
  PeriodicRta lo(g, "lo", Elastic(Ms(8), Ms(10), Ms(4), Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(5), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Sec(1));
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(200));
  ASSERT_EQ(lo.admission_result(), kGuestOk);
  EXPECT_EQ(hi.admission_result(), kGuestErrBusy);
  EXPECT_FALSE(lo.task()->compressed());
  EXPECT_EQ(g->overload_stats().compressions, 0u);
  EXPECT_EQ(g->overload_stats().sheds, 0u);
}

// A rejected INC_BW tagged kBwReasonAdmission raises host pressure at the
// next overload scan; a rejected kBwReasonReinflate probe must not.
TEST(HostPressure, AdmissionRejectionRaisesPressureReinflateDoesNot) {
  for (int64_t reason : {kBwReasonAdmission, kBwReasonReinflate}) {
    ExperimentConfig cfg = PureConfig(1);
    cfg.dpwrap.overload.enabled = true;
    Experiment exp(cfg);
    GuestOs* g = exp.AddGuest("vm", 2);
    HypercallArgs args;
    args.op = SchedOp::kIncBw;
    args.vcpu_a = g->vm()->vcpu(0);
    // Below the high watermark, so only the rejection itself can raise
    // pressure — not the utilization.
    args.bw_a = Bandwidth::FromDouble(0.9);
    args.period_a = Ms(10);
    ASSERT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
    args.vcpu_a = g->vm()->vcpu(1);
    args.bw_a = Bandwidth::FromDouble(0.5);
    args.reason = reason;
    ASSERT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallNoBandwidth);
    exp.Run(Ms(20));  // Past the next overload scan.
    EXPECT_EQ(exp.dpwrap()->pressure(), reason == kBwReasonAdmission)
        << "reason=" << reason;
  }
}

// Re-inflation admissions are capped at the 0.98 high watermark (new demand
// may use full capacity): a same-window race between two re-inflating guests
// is resolved by rejection instead of overshooting into a pressure/shed
// cycle.
TEST(HostPressure, ReinflateAdmissionCappedAtWatermark) {
  ExperimentConfig cfg = PureConfig(1);
  cfg.dpwrap.overload.enabled = true;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 2);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::FromDouble(0.85);
  args.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
  args.vcpu_a = g->vm()->vcpu(1);
  args.bw_a = Bandwidth::FromDouble(0.14);  // 0.99 total: above the watermark.
  args.reason = kBwReasonReinflate;
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallNoBandwidth);
  args.reason = kBwReasonAdmission;  // New demand: full capacity applies.
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
}

// Cross-layer recovery: host pressure sheds a LOW task for a HIGH newcomer;
// once the HIGH task leaves and pressure clears, the hysteresis loop resumes
// the shed task and re-inflates compressed reservations.
TEST(OverloadRecovery, ShedTaskResumesAndReinflatesAfterPressureClears) {
  ExperimentConfig cfg = PureConfig(1);
  cfg.dpwrap.overload.enabled = true;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 3, OverloadGuest());
  DeadlineMonitor mon;
  PeriodicRta lo(g, "lo", Elastic(Ms(3), Ms(10), Ms(2), Criticality::kLow));
  PeriodicRta lo2(g, "lo2", Elastic(Ms(3), Ms(10), 0, Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(8), Ms(10), 0, Criticality::kHigh));
  lo.task()->set_observer(&mon);
  lo.Start(0, Sec(4));
  lo2.Start(0, Sec(4));
  hi.Start(Ms(500), Sec(2));  // Overloads, then leaves at t=2s.
  exp.Run(Sec(4));
  ASSERT_EQ(hi.admission_result(), kGuestOk);
  EXPECT_GE(g->overload_stats().sheds, 1u);
  EXPECT_GE(g->overload_stats().resumes, 1u);
  EXPECT_GE(g->overload_stats().expansions, 1u);
  // Fully recovered by the end: nothing still shed or compressed.
  EXPECT_FALSE(lo.task()->shed());
  EXPECT_FALSE(lo2.task()->shed());
  EXPECT_FALSE(lo.task()->compressed());
}

// Unregistering a shed task must not underflow the accounting or touch the
// host (its reservation was already released when it was shed).
TEST(OverloadRecovery, UnregisterWhileShedIsClean) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2, OverloadGuest());
  PeriodicRta lo(g, "lo", Elastic(Ms(6), Ms(10), 0, Criticality::kLow));
  PeriodicRta hi(g, "hi", Elastic(Ms(8), Ms(10), 0, Criticality::kHigh));
  lo.Start(0, Ms(300));  // Unregisters at t=300ms, while shed.
  hi.Start(Ms(100), Sec(1));
  exp.Run(Ms(500));
  ASSERT_TRUE(g->overload_stats().sheds == 1u);
  EXPECT_FALSE(lo.task()->shed());  // Unregister cleared the shed state.
  // The HIGH reservation is still the only one at the host.
  EXPECT_EQ(exp.dpwrap()->total_reserved(), Bandwidth::FromSlicePeriod(Ms(8), Ms(10)));
}

}  // namespace
}  // namespace rtvirt
