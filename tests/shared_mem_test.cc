// Shared scheduling page and hypercall ABI.

#include <gtest/gtest.h>

#include <memory>

#include "src/hv/shared_mem.h"
#include "src/runner/experiment.h"
#include "src/rtvirt/guest_channel.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

TEST(SharedSchedPage, DefaultsToNever) {
  SharedSchedPage page;
  EXPECT_EQ(page.next_deadline(0), kTimeNever);
  EXPECT_EQ(page.next_deadline(7), kTimeNever);
  EXPECT_EQ(page.next_deadline(-1), kTimeNever);
}

TEST(SharedSchedPage, PublishAndRead) {
  SharedSchedPage page;
  page.PublishNextDeadline(2, Ms(30));
  EXPECT_EQ(page.next_deadline(2), Ms(30));
  EXPECT_EQ(page.next_deadline(0), kTimeNever);  // Other slots untouched.
  page.PublishNextDeadline(2, Ms(10));
  EXPECT_EQ(page.next_deadline(2), Ms(10));  // Overwrites.
}

// Regression: a buggy or malicious guest passing a negative VCPU index used
// to index the slot vector out of bounds; writes must be ignored and reads
// must return the defaults.
TEST(SharedSchedPage, NegativeIndexAccessIsIgnored) {
  SharedSchedPage page;
  page.PublishNextDeadline(-5, Ms(1));
  page.PublishNextDeadline(-1, Ms(2));
  EXPECT_EQ(page.next_deadline(-5), kTimeNever);
  EXPECT_EQ(page.next_deadline(-1), kTimeNever);
  EXPECT_EQ(page.last_publish_time(-1), -1);
  // And the page is still fully functional for valid indices.
  page.PublishNextDeadline(0, Ms(3));
  EXPECT_EQ(page.next_deadline(0), Ms(3));
}

// The negative-index guard's mirror image (trust-boundary PR): an index at or
// beyond the one-page slot cap is ignored, so a corrupted or malicious index
// cannot grow the backing vector into an allocation attack.
TEST(SharedSchedPage, BeyondCapIndexAccessIsIgnored) {
  SharedSchedPage page;
  page.PublishNextDeadline(SharedSchedPage::kMaxSlots, Ms(1));
  page.PublishNextDeadline(SharedSchedPage::kMaxSlots + 123456789, Ms(2));
  EXPECT_EQ(page.next_deadline(SharedSchedPage::kMaxSlots), kTimeNever);
  EXPECT_EQ(page.last_publish_time(SharedSchedPage::kMaxSlots + 123456789), -1);
  // The last in-cap slot still works.
  page.PublishNextDeadline(SharedSchedPage::kMaxSlots - 1, Ms(3));
  EXPECT_EQ(page.next_deadline(SharedSchedPage::kMaxSlots - 1), Ms(3));
}

TEST(SharedSchedPage, LastPublishTimeTracksVisibleWrite) {
  SharedSchedPage page;
  EXPECT_EQ(page.last_publish_time(0), -1);  // Never written.
  page.PublishNextDeadline(0, Ms(3));
  EXPECT_EQ(page.last_publish_time(0), 0);  // No clock attached: stamped 0.
}

TEST(SharedSchedPage, VisibilityDelayHidesWritesUntilElapsed) {
  Simulator sim;
  SharedSchedPage page;
  page.AttachClock(&sim);
  page.SetVisibilityDelay(Us(200));

  page.PublishNextDeadline(0, Ms(9));
  EXPECT_EQ(page.next_deadline(0), kTimeNever) << "write inside coherence window";
  EXPECT_EQ(page.last_publish_time(0), -1);

  // A newer write supersedes a still-pending one (last write wins).
  sim.RunUntil(Us(100));
  page.PublishNextDeadline(0, Ms(7));
  sim.RunUntil(Us(250));
  EXPECT_EQ(page.next_deadline(0), kTimeNever) << "second write restarted the window";
  sim.RunUntil(Us(300));
  EXPECT_EQ(page.next_deadline(0), Ms(7));
  EXPECT_EQ(page.last_publish_time(0), Us(100));  // When the guest wrote it.

  // Zero delay restores instant visibility.
  page.SetVisibilityDelay(0);
  page.PublishNextDeadline(0, Ms(5));
  EXPECT_EQ(page.next_deadline(0), Ms(5));
}

TEST(HypercallAbi, StatusCodesAreErrnoLike) {
  EXPECT_EQ(kHypercallOk, 0);
  EXPECT_LT(kHypercallNoBandwidth, 0);
  EXPECT_LT(kHypercallInvalid, 0);
  EXPECT_LT(kHypercallNotSupported, 0);
}

TEST(HypercallAbi, NonCrossLayerSchedulersRejectHypercalls) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kCredit;
  cfg.machine = ZeroCostMachine(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::FromDouble(0.5);
  args.period_a = Ms(10);
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallNotSupported);
}

TEST(HypercallAbi, CostChargedPerCall) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(2);
  cfg.machine.hypercall_cost = Us(10);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::FromDouble(0.3);
  args.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
  EXPECT_EQ(exp.machine().overhead().hypercalls, 1u);
  EXPECT_EQ(exp.machine().overhead().hypercall_time, Us(10));
}

TEST(GuestChannelTest, PublishesThroughSharedPage) {
  Simulator sim;
  Machine m(&sim, ZeroCostMachine(1));
  m.SetScheduler(std::make_unique<DedicatedScheduler>());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = vm->AddVcpu();
  RtvirtGuestChannel channel(&m);
  channel.PublishNextDeadline(v, Ms(42));
  EXPECT_EQ(vm->shared_page().next_deadline(0), Ms(42));
}

TEST(GuestChannelTest, SlackCappedAtOneCpuAndFraction) {
  Simulator sim;
  Machine m(&sim, ZeroCostMachine(1));
  m.SetScheduler(std::make_unique<DedicatedScheduler>());
  GuestChannelOptions opts;
  opts.budget_slack = Us(500);
  RtvirtGuestChannel channel(&m, opts);
  // ms-scale period: full 500 us slack applies.
  Bandwidth ms_task = Bandwidth::FromSlicePeriod(Ms(5), Ms(10));
  EXPECT_EQ(channel.WithSlack(ms_task, Ms(10)) - ms_task,
            Bandwidth::FromSlicePeriod(Us(500), Ms(10)));
  // us-scale period: capped to 10% of the period, not a full extra CPU.
  Bandwidth us_task = Bandwidth::FromSlicePeriod(Us(58), Us(500));
  Bandwidth padded = channel.WithSlack(us_task, Us(500));
  EXPECT_EQ(padded - us_task, Bandwidth::FromSlicePeriod(Us(50), Us(500)));
  // Near-saturated task: never exceeds one CPU.
  Bandwidth big = Bandwidth::FromDouble(0.99);
  EXPECT_EQ(channel.WithSlack(big, Ms(1)), Bandwidth::One());
  // Zero bandwidth passes through unchanged.
  EXPECT_EQ(channel.WithSlack(Bandwidth::Zero(), Ms(10)), Bandwidth::Zero());
}

}  // namespace
}  // namespace rtvirt
