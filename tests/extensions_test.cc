// Tests for the paper's section 6 extensions: CPU affinity in DP-WRAP, the
// idle tax on over-claiming reservations, priority-proportional slack, and
// the occupied-chunk wrap layout that affinity builds on.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/common/bandwidth.h"
#include "src/metrics/deadline_monitor.h"
#include "src/rtvirt/guest_channel.h"
#include "src/rtvirt/wrap_layout.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig PureRtvirt(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.dpwrap.pick_cost = 0;
  cfg.dpwrap.replan_cost_base = 0;
  cfg.dpwrap.replan_cost_per_log = 0;
  return cfg;
}

// ---- WrapAround over occupied chunks (full speed) ----

// Lays `items` out at full speed after `occupied` (taken by value: the final
// fill is dropped) into a fresh segment buffer.
std::vector<WrapSegment> WrapFrom(const std::vector<WrapItem>& items, TimeNs slice_len,
                                  std::vector<TimeNs> occupied) {
  const std::vector<int64_t> speeds(occupied.size(), Bandwidth::kUnit);
  std::vector<WrapSegment> segments;
  WrapAround(items, slice_len, occupied, speeds, &segments);
  return segments;
}

TEST(WrapAround, RespectsOccupiedPrefixes) {
  std::vector<WrapItem> items{{0, 50}, {1, 80}};
  const std::vector<TimeNs> occupied{40, 20};
  const std::vector<int64_t> speeds(occupied.size(), Bandwidth::kUnit);
  std::vector<TimeNs> fill = occupied;
  std::vector<WrapSegment> segs{{9, 0, 0, 1}};  // Stale contents are discarded.
  WrapAround(items, 100, fill, speeds, &segs);
  std::map<int, TimeNs> per_item;
  std::vector<TimeNs> placed(occupied.size(), 0);
  for (const auto& s : segs) {
    EXPECT_GE(s.start, occupied[s.pcpu]);
    EXPECT_LE(s.end, 100);
    per_item[s.item_id] += s.end - s.start;
    placed[s.pcpu] += s.end - s.start;
  }
  EXPECT_EQ(per_item.size(), 2u);
  EXPECT_EQ(per_item[0], 50);
  EXPECT_EQ(per_item[1], 80);
  // The fill comes back as each chunk's final occupancy.
  for (size_t k = 0; k < occupied.size(); ++k) {
    EXPECT_EQ(fill[k], occupied[k] + placed[k]) << "chunk " << k;
  }
}

TEST(WrapAround, SplitPiecesDoNotOverlapInTime) {
  // Item 1 must straddle; verify its pieces are disjoint in wall-clock time.
  std::vector<WrapItem> items{{0, 70}, {1, 50}};
  std::vector<TimeNs> occupied{0, 0, 0};
  auto segs = WrapFrom(items, 100, occupied);
  std::vector<WrapSegment> item1;
  for (const auto& s : segs) {
    if (s.item_id == 1) {
      item1.push_back(s);
    }
  }
  for (size_t i = 0; i < item1.size(); ++i) {
    for (size_t j = i + 1; j < item1.size(); ++j) {
      bool disjoint = item1[i].end <= item1[j].start || item1[j].end <= item1[i].start;
      EXPECT_TRUE(disjoint);
    }
  }
}

TEST(WrapAround, MovesToNextChunkWhenStraddleWouldOverlap) {
  // Chunk0 free [90,100): an item of 40 starting there would straddle with
  // its second piece [60,90+...) on chunk1 overlapping [90,100)? piece2 is
  // [60,90) which touches 90 exactly -- unsafe if it extended past. Use
  // occupied{90, 75, 0}: rest 30 would occupy [75,105) > 90 -> unsafe, so
  // the item starts on chunk1 instead and still fits nowhere contiguously
  // -> ends on chunk2 cleanly.
  std::vector<WrapItem> items{{0, 40}};
  std::vector<TimeNs> occupied{90, 75, 0};
  auto segs = WrapFrom(items, 100, occupied);
  TimeNs total = 0;
  for (const auto& s : segs) {
    total += s.end - s.start;
    for (const auto& t : segs) {
      if (&s != &t) {
        bool disjoint = s.end <= t.start || t.end <= s.start;
        EXPECT_TRUE(disjoint) << "self-overlap";
      }
    }
  }
  EXPECT_EQ(total, 40);
}

TEST(WrapAround, LastResortPlacesEverythingEvenWhenFragmented) {
  // Pathological: tight free space forces the second pass; all allocation
  // must still be placed (overlap allowed as a documented degradation).
  std::vector<WrapItem> items{{0, 11}, {1, 11}, {2, 11}, {3, 11}};
  std::vector<TimeNs> occupied{0, 0, 11};  // slice 20: free 20+20+9 = 49.
  auto segs = WrapFrom(items, 20, occupied);
  std::map<int, TimeNs> per_item;
  for (const auto& s : segs) {
    per_item[s.item_id] += s.end - s.start;
    EXPECT_GE(s.start, 0);
    EXPECT_LE(s.end, 20);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(per_item[i], 11) << "item " << i;
  }
}

// ---- CPU affinity ----

TEST(DpWrapAffinity, PinnedVcpuNeverMigrates) {
  Experiment exp(PureRtvirt(3));
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  DeadlineMonitor mon;
  std::vector<GuestOs*> guests;
  for (int i = 0; i < 4; ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    guests.push_back(g);
    auto rta = std::make_unique<PeriodicRta>(g, "rta" + std::to_string(i),
                                             RtaParams{Ms(11), Ms(20), false});
    rta->task()->set_observer(&mon);
    rta->Start(0, Sec(1));
    rtas.push_back(std::move(rta));
  }
  // Pin VM0 to PCPU 2 (cache-sensitive); set before the reservation exists.
  exp.dpwrap()->SetAffinity(guests[0]->vm()->vcpu(0), 2);
  exp.Run(Sec(1));
  EXPECT_EQ(exp.dpwrap()->Affinity(guests[0]->vm()->vcpu(0)), 2);
  EXPECT_EQ(guests[0]->vm()->vcpu(0)->migrations(), 0u);
  EXPECT_EQ(guests[0]->vm()->vcpu(0)->last_pcpu(), exp.machine().pcpu(2));
  EXPECT_EQ(mon.total_misses(), 0u);  // Other VMs still meet deadlines.
}

TEST(DpWrapAffinity, AffinitySetAfterReservation) {
  Experiment exp(PureRtvirt(2));
  GuestOs* g = exp.AddGuest("vm", 1);
  PeriodicRta rta(g, "rta", RtaParams{Ms(5), Ms(10), false});
  rta.Start(0, Sec(1));
  exp.Run(Ms(100));
  exp.dpwrap()->SetAffinity(g->vm()->vcpu(0), 1);
  exp.Run(Ms(200));
  uint64_t migrations_at_pin = g->vm()->vcpu(0)->migrations();
  exp.Run(Sec(1));
  // At most the one migration onto PCPU 1; none afterwards.
  EXPECT_LE(g->vm()->vcpu(0)->migrations() - migrations_at_pin, 1u);
  EXPECT_EQ(g->vm()->vcpu(0)->last_pcpu(), exp.machine().pcpu(1));
}

// The pin indexes per-PCPU layout state, so a bad one must stop the run in
// every build type, not only where assert() is compiled in.
TEST(DpWrapAffinityDeathTest, OutOfRangePinIsFatal) {
  Experiment exp(PureRtvirt(2));
  Vcpu* v = exp.AddGuest("vm", 1)->vm()->vcpu(0);
  EXPECT_DEATH(exp.dpwrap()->SetAffinity(v, 2), "SetAffinity: pcpu 2 out of range \\[-1, 2\\)");
  EXPECT_DEATH(exp.dpwrap()->SetAffinity(v, -2), "SetAffinity: pcpu -2 out of range");
  exp.dpwrap()->SetAffinity(v, -1);  // Clearing is always valid.
  EXPECT_EQ(exp.dpwrap()->Affinity(v), -1);
}

// ---- Idle tax ----

TEST(IdleTax, IdleOverclaimIsTaxedAndBusyClaimIsNot) {
  ExperimentConfig cfg = PureRtvirt(1);
  cfg.dpwrap.idle_tax.enabled = true;
  cfg.dpwrap.idle_tax.window = Ms(100);
  Experiment exp(cfg);
  GuestOs* busy = exp.AddGuest("busy", 1);
  GuestOs* idle = exp.AddGuest("idle", 1);

  // Both claim 0.45 CPUs; `busy` uses it, `idle` never releases a job.
  DeadlineMonitor mon;
  PeriodicRta busy_rta(busy, "busy", RtaParams{Ms(45), Ms(100), false});
  busy_rta.task()->set_observer(&mon);
  busy_rta.Start(0, Sec(5));
  Task* idle_claim = idle->CreateTask("idle-claim");
  ASSERT_EQ(idle->SchedSetAttr(idle_claim, RtaParams{Ms(45), Ms(100), false}), kGuestOk);

  exp.Run(Sec(2));
  EXPECT_GT(exp.dpwrap()->TaxFactor(busy->vm()->vcpu(0)), 0.9);
  EXPECT_LT(exp.dpwrap()->TaxFactor(idle->vm()->vcpu(0)), 0.5);
  // The taxed total leaves room that raw claims would not.
  EXPECT_LT(exp.dpwrap()->total_effective(), exp.dpwrap()->total_reserved());
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(IdleTax, FreedBandwidthBecomesAdmissible) {
  ExperimentConfig cfg = PureRtvirt(1);
  cfg.dpwrap.idle_tax.enabled = true;
  cfg.dpwrap.idle_tax.window = Ms(100);
  Experiment exp(cfg);
  GuestOs* hoarder = exp.AddGuest("hoarder", 1);
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  Task* claim = hoarder->CreateTask("claim");
  ASSERT_EQ(hoarder->SchedSetAttr(claim, RtaParams{Ms(80), Ms(100), false}), kGuestOk);
  // Raw totals are full: a 0.5 tenant is rejected at t=0...
  Task* t = tenant->CreateTask("t");
  EXPECT_EQ(tenant->SchedSetAttr(t, RtaParams{Ms(50), Ms(100), false}), kGuestErrBusy);
  // ...but after a few idle windows the hoarder's claim is taxed down and
  // the tenant fits.
  exp.Run(Sec(1));
  EXPECT_EQ(tenant->SchedSetAttr(t, RtaParams{Ms(50), Ms(100), false}), kGuestOk);
}

TEST(IdleTax, TaxedReservationRecoversWhenItBecomesBusy) {
  ExperimentConfig cfg = PureRtvirt(1);
  cfg.dpwrap.idle_tax.enabled = true;
  cfg.dpwrap.idle_tax.window = Ms(100);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Task* task = g->CreateTask("t");
  ASSERT_EQ(g->SchedSetAttr(task, RtaParams{Ms(60), Ms(100), false}), kGuestOk);
  exp.Run(Sec(1));  // Idle: taxed down.
  double taxed = exp.dpwrap()->TaxFactor(g->vm()->vcpu(0));
  ASSERT_LT(taxed, 0.5);
  // Becomes busy: jobs arrive every period for 2 s.
  for (int k = 0; k < 20; ++k) {
    exp.sim().At(Sec(1) + k * Ms(100) + 1, [&] {
      g->ReleaseJob(task, Ms(55), exp.sim().Now() + Ms(100));
    });
  }
  exp.Run(Sec(3));
  EXPECT_GT(exp.dpwrap()->TaxFactor(g->vm()->vcpu(0)), taxed);
  EXPECT_GT(exp.dpwrap()->TaxFactor(g->vm()->vcpu(0)), 0.8);
}

// ---- Priority-proportional slack ----

TEST(PrioritySlack, HigherPriorityGetsMoreSlack) {
  GuestChannelOptions base;   // priority_scale 1.0
  GuestChannelOptions high;
  high.priority_scale = 2.0;
  Simulator sim;
  Machine m(&sim, ZeroCostMachine(2));
  m.SetScheduler(std::make_unique<DedicatedScheduler>());
  RtvirtGuestChannel ch_base(&m, base);
  RtvirtGuestChannel ch_high(&m, high);
  Bandwidth bw = Bandwidth::FromSlicePeriod(Ms(5), Ms(10));
  EXPECT_GT(ch_high.WithSlack(bw, Ms(10)), ch_base.WithSlack(bw, Ms(10)));
  EXPECT_EQ(ch_base.WithSlack(bw, Ms(10)) - bw, Bandwidth::FromSlicePeriod(Us(500), Ms(10)));
  EXPECT_EQ(ch_high.WithSlack(bw, Ms(10)) - bw, Bandwidth::FromSlicePeriod(Ms(1), Ms(10)));
}

}  // namespace
}  // namespace rtvirt
