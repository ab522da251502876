// Determinism regression (robustness PR satellite): the same seed and the
// same fault plan must reproduce the exact same run — byte-identical metrics
// report and equal resilience counters across two fresh executions. Guards
// the whole recovery path (evacuation, capacity re-plans, pressure ladder,
// audit) against hidden nondeterminism: any wall-clock read, pointer-keyed
// iteration order, or uninitialized state in the new code shows up here as a
// report diff long before it corrupts an experiment sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/sim/event_queue.h"
#include "src/workloads/churn.h"
#include "src/workloads/periodic.h"
#include "tests/event_oracle.h"

namespace rtvirt {
namespace {

constexpr TimeNs kRun = Sec(4);

// A recover-mode run with every new knob on and an eventful fault timeline:
// a mid-grant core loss, an overlapping throttle, and both heals.
ExperimentConfig FaultyConfig() {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 4;
  cfg.dpwrap.pcpu_recovery.enabled = true;
  cfg.dpwrap.overload.enabled = true;
  cfg.audit.enabled = true;
  cfg.machine.evacuation_penalty = Us(150);

  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  outage.pcpu = 3;
  outage.at = Sec(1) + Us(700);  // Off the period grid: mid-grant.
  outage.until = Sec(3);
  cfg.faults.pcpu_faults.push_back(outage);
  FaultPlan::PcpuFault throttle;
  throttle.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  throttle.pcpu = 2;
  throttle.at = Sec(2);
  throttle.until = Sec(3) + Ms(500);
  throttle.speed = 0.6;
  cfg.faults.pcpu_faults.push_back(throttle);
  return cfg;
}

struct RunResult {
  std::string report;
  ResilienceCounters rc;
  uint64_t events = 0;
};

RunResult RunOnce() {
  ExperimentConfig cfg = FaultyConfig();
  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* hi = exp.AddGuest("hi", 6, gcfg);
  GuestOs* lo = exp.AddGuest("lo", 4, gcfg);

  // Churned (seeded-random) demand in both tiers so the run exercises
  // admission, compression, shedding and resume — not just a static plan.
  ChurnConfig hi_cfg;
  hi_cfg.experiment_len = kRun;
  hi_cfg.criticality = Criticality::kHigh;
  hi_cfg.profile = RtaParams{Us(2250), Ms(10)};
  hi_cfg.admission_retry = Ms(50);
  ChurnConfig lo_cfg = hi_cfg;
  lo_cfg.criticality = Criticality::kLow;
  lo_cfg.profile = RtaParams{Us(4500), Ms(10)};
  lo_cfg.elastic_min_fraction = 0.5;
  DeadlineMonitor hi_mon, lo_mon;
  ChurnDriver hi_churn(hi, hi_cfg, Rng(977), &hi_mon);
  ChurnDriver lo_churn(lo, lo_cfg, Rng(978), &lo_mon);
  hi_churn.Start();
  lo_churn.Start();
  exp.Run(kRun);

  RunResult r;
  std::ostringstream out;
  exp.PrintReport(out, "determinism");
  out << "hi completed=" << hi_mon.total_completed() << " misses=" << hi_mon.total_misses()
      << "\nlo completed=" << lo_mon.total_completed() << " misses=" << lo_mon.total_misses()
      << "\n";
  r.report = out.str();
  r.rc = exp.resilience();
  r.events = exp.sim().events_processed();
  return r;
}

TEST(Determinism, SameSeedAndFaultPlanReproduceByteIdenticalReports) {
  RunResult a = RunOnce();
  RunResult b = RunOnce();
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.events, b.events);

  // The fault path itself fired (the test is vacuous otherwise)...
  EXPECT_EQ(a.rc.pcpu_offline_events, 1u);
  EXPECT_EQ(a.rc.pcpu_degrade_events, 1u);
  EXPECT_GT(a.rc.capacity_replans, 0u);
  EXPECT_GT(a.rc.audit_checks, 0u);
  EXPECT_EQ(a.rc.audit_violations, 0u);

  // ...and every counter in the recovery pipeline matches exactly.
  EXPECT_EQ(a.rc.pcpu_evacuations, b.rc.pcpu_evacuations);
  EXPECT_EQ(a.rc.capacity_replans, b.rc.capacity_replans);
  EXPECT_EQ(a.rc.sheds, b.rc.sheds);
  EXPECT_EQ(a.rc.resumes, b.rc.resumes);
  EXPECT_EQ(a.rc.compressions, b.rc.compressions);
  EXPECT_EQ(a.rc.expansions, b.rc.expansions);
  EXPECT_EQ(a.rc.audit_checks, b.rc.audit_checks);
}

// Trust-boundary PR: the adversarial-guest events draw no RNG and the trust
// state machine iterates VMs in machine index order, so the same seed and
// the same adversarial plan must reproduce byte-identical reports — lies,
// storms, thrash, quarantines, rehabilitations and all.
RunResult RunAdversarialOnce() {
  ExperimentConfig cfg = FaultyConfig();
  cfg.dpwrap.guest_trust.enabled = true;
  for (auto kind : {FaultPlan::AdversarialGuest::Kind::kDeadlineLies,
                    FaultPlan::AdversarialGuest::Kind::kHypercallStorm,
                    FaultPlan::AdversarialGuest::Kind::kBandwidthThrash}) {
    FaultPlan::AdversarialGuest a;
    a.kind = kind;
    a.vm_index = 2;
    a.start = Ms(500);
    a.end = Sec(3);
    a.period = kind == FaultPlan::AdversarialGuest::Kind::kHypercallStorm ? Us(100)
               : kind == FaultPlan::AdversarialGuest::Kind::kDeadlineLies ? Us(200)
                                                                          : Us(500);
    a.thrash_high = Bandwidth::FromDouble(0.15);
    cfg.faults.adversarial_guests.push_back(a);
  }

  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* hi = exp.AddGuest("hi", 6, gcfg);
  exp.AddGuest("lo", 4, gcfg);  // Fills VM index 1; the plan targets index 2.
  GuestOs* byz = exp.AddGuest("byz", 2);
  PeriodicRta cover(byz, "cover", RtaParams{Ms(1), Ms(10)});
  cover.Start(0, kRun);

  ChurnConfig hi_cfg;
  hi_cfg.experiment_len = kRun;
  hi_cfg.criticality = Criticality::kHigh;
  hi_cfg.profile = RtaParams{Us(2250), Ms(10)};
  hi_cfg.admission_retry = Ms(50);
  DeadlineMonitor hi_mon;
  ChurnDriver hi_churn(hi, hi_cfg, Rng(977), &hi_mon);
  hi_churn.Start();
  exp.Run(kRun);

  RunResult r;
  std::ostringstream out;
  exp.PrintReport(out, "determinism-adversarial");
  out << "hi completed=" << hi_mon.total_completed() << " misses=" << hi_mon.total_misses()
      << "\n";
  r.report = out.str();
  r.rc = exp.resilience();
  r.events = exp.sim().events_processed();
  return r;
}

TEST(Determinism, SameSeedAndAdversarialPlanReproduceByteIdenticalReports) {
  RunResult a = RunAdversarialOnce();
  RunResult b = RunAdversarialOnce();
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.events, b.events);

  // The attack and every defense actually fired (vacuity guard)...
  EXPECT_GT(a.rc.adversarial_deadline_lies, 0u);
  EXPECT_GT(a.rc.adversarial_storm_calls, 0u);
  EXPECT_GT(a.rc.adversarial_thrash_calls, 0u);
  EXPECT_GT(a.rc.deadline_lie_rejections, 0u);
  EXPECT_GT(a.rc.hypercall_rate_rejections, 0u);
  EXPECT_GE(a.rc.quarantines, 1u);

  // ...and the trust pipeline's counters match exactly across runs.
  EXPECT_EQ(a.rc.deadline_lie_rejections, b.rc.deadline_lie_rejections);
  EXPECT_EQ(a.rc.hypercall_rate_rejections, b.rc.hypercall_rate_rejections);
  EXPECT_EQ(a.rc.bw_thrash_trips, b.rc.bw_thrash_trips);
  EXPECT_EQ(a.rc.quarantines, b.rc.quarantines);
  EXPECT_EQ(a.rc.quarantine_releases, b.rc.quarantine_releases);
  EXPECT_EQ(a.rc.quarantine_holds, b.rc.quarantine_holds);
}

TEST(Determinism, DifferentWorkloadSeedStillRunsCleanUnderFaults) {
  // Not a reproducibility check — a robustness sweep in miniature: a second
  // seed through the same fault plan must also finish with a clean audit.
  ExperimentConfig cfg = FaultyConfig();
  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* g = exp.AddGuest("g", 6, gcfg);
  ChurnConfig ccfg;
  ccfg.experiment_len = kRun;
  ccfg.profile = RtaParams{Us(2500), Ms(10)};
  ccfg.elastic_min_fraction = 0.5;
  DeadlineMonitor mon;
  ChurnDriver churn(g, ccfg, Rng(31337), &mon);
  churn.Start();
  exp.Run(kRun);
  EXPECT_GT(exp.auditor()->stats().audit_checks, 0u);
  EXPECT_EQ(exp.auditor()->stats().audit_violations, 0u);
}

// Drives the calendar queue and the std::set reference model
// (tests/event_oracle.h) through identical operations. They implement the
// same (time, insertion-seq) total order, so they must agree on every
// cancellation, every next event time and every fired event. Each event's
// payload is a fresh tag, so `Pop` identifies the event that fired.
class Lockstep {
 public:
  struct Ids {
    EventQueue::EventId cal;
    SetEventQueue::EventId oracle;
  };

  Ids Schedule(TimeNs when) {
    uint64_t tag = next_tag_++;
    return Ids{cal_.Schedule(when, Event{&cal_log_, 0, tag}),
               oracle_.Schedule(when, Event{&oracle_log_, 0, tag})};
  }

  // Re-arms in both as a fresh event (a new tag); the calendar moves a
  // pending node in place, the model cancels and schedules.
  Ids Rearm(const Ids& ids, TimeNs when) {
    uint64_t tag = next_tag_++;
    return Ids{cal_.Rearm(ids.cal, when, Event{&cal_log_, 0, tag}),
               oracle_.Rearm(ids.oracle, when, Event{&oracle_log_, 0, tag})};
  }

  // Cancels in both; false if they disagree on what was pending.
  bool Cancel(Ids& ids) {
    Event a = cal_.Cancel(ids.cal);
    Event b = oracle_.Cancel(ids.oracle);
    return a.payload == b.payload && (a.target == nullptr) == (b.target == nullptr);
  }

  // Pops the earliest event from both and returns its tag; false if they
  // disagree on its time or tag. Precondition: !empty().
  bool Pop(TimeNs* time, uint64_t* tag) {
    *time = cal_.NextTime();
    if (*time != oracle_.NextTime()) {
      return false;
    }
    cal_.PopNext().event.Fire();
    oracle_.PopNext().event.Fire();
    *tag = cal_log_.fired.back();
    return *tag == oracle_log_.fired.back();
  }

  bool empty() const { return cal_.empty(); }
  bool SizesAgree() const { return cal_.size() == oracle_.size(); }
  const EventQueue& calendar() const { return cal_; }
  bool FiredSequencesAgree() const { return cal_log_.fired == oracle_log_.fired; }
  const std::vector<uint64_t>& fired() const { return cal_log_.fired; }

 private:
  struct Log : EventTarget {
    std::vector<uint64_t> fired;
    void OnEvent(uint32_t /*kind*/, uint64_t payload) override { fired.push_back(payload); }
  };

  EventQueue cal_;
  SetEventQueue oracle_;
  Log cal_log_;
  Log oracle_log_;
  uint64_t next_tag_ = 0;
};

// 100k randomized schedule/cancel/pop operations driven through both queues
// in lockstep; at every step their sizes and next event times must agree.
// Any calendar divergence under resizes, width retunes or node recycling
// shows up here as a first-divergence step index.
TEST(Determinism, EventQueueBackendsAgreeOverRandomizedOps) {
  Lockstep q;
  Rng rng(0xEC0FFEEull);
  std::vector<Lockstep::Ids> pending;

  TimeNs now = 0;
  constexpr int kOps = 100000;
  for (int op = 0; op < kOps; ++op) {
    int roll = static_cast<int>(rng.UniformInt(0, 99));
    if (roll < 45 || pending.empty()) {
      // Schedule the same event in both queues. Mix of near and far times,
      // with occasional exact duplicates to exercise FIFO tie-breaking.
      pending.push_back(q.Schedule(now + rng.UniformTime(0, roll % 5 == 0 ? 50 : 5000000)));
    } else if (roll < 70) {
      // Cancel a random outstanding event in both (ids of already-fired
      // events are still in `pending`; cancelling those must be a no-op in
      // both equally).
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
      ASSERT_TRUE(q.Cancel(pending[pick])) << "step " << op;
      pending[pick] = pending.back();
      pending.pop_back();
    } else if (!q.empty()) {
      uint64_t tag = 0;
      ASSERT_TRUE(q.Pop(&now, &tag)) << "step " << op;
    }
    ASSERT_TRUE(q.SizesAgree()) << "step " << op;
  }
  // Drain both completely and require identical fired sequences.
  while (!q.empty()) {
    uint64_t tag = 0;
    ASSERT_TRUE(q.Pop(&now, &tag));
  }
  EXPECT_TRUE(q.SizesAgree());
  EXPECT_TRUE(q.FiredSequencesAgree());
  EXPECT_GT(q.calendar().stats().calendar_resizes, 0u);
}

// The same lockstep through the bucket-width retunes, with EventIds live
// across them. Phase 1 has the Figure 4 shape: millisecond release timers,
// each re-arming a budget timer that the next release cancels (or that fires
// first, leaving a stale id), beside far-future episode timers that are
// pending at the first occupancy resize. Its crowded buckets make the width
// narrow. Phase 2 stops the millisecond timers and lets the spacing widen to
// seconds, which makes the width widen again. With `rearm`, each release
// moves its budget timer with Rearm instead of cancelling and scheduling it.
void RetuneLockstep(bool rearm) {
  Lockstep q;
  Rng rng(0x5EC0DEull);
  constexpr int kTimers = 256;
  constexpr int kEpisodes = 4;
  struct Timer {
    TimeNs period = 0;
    TimeNs budget = 0;
    Lockstep::Ids budget_id;
  };
  std::vector<Timer> timers(kTimers);
  // What each tag is: an episode end, or a timer's release or budget.
  enum class Kind { kEpisode, kRelease, kBudget };
  struct Owner {
    Kind kind;
    int timer;
  };
  std::vector<Owner> owner;
  auto schedule = [&](TimeNs when, Kind kind, int timer) {
    owner.push_back(Owner{kind, timer});
    return q.Schedule(when);
  };

  for (int e = 0; e < kEpisodes; ++e) {
    schedule(rng.UniformTime(Sec(10), Min(6)), Kind::kEpisode, -1);
  }
  for (int i = 0; i < kTimers; ++i) {
    timers[i].period = rng.UniformTime(Ms(1), Ms(4));
    timers[i].budget = timers[i].period * rng.UniformInt(50, 110) / 100;
    schedule(timers[i].period * (i + 1) / kTimers, Kind::kRelease, i);
  }

  TimeNs now = 0;
  int narrower = 0;
  int wider = 0;
  auto run = [&](int pops, bool ms_timers_on) {
    for (int k = 0; k < pops; ++k) {
      const TimeNs width = q.calendar().bucket_width();
      const uint64_t retunes = q.calendar().stats().calendar_retunes;
      uint64_t tag = 0;
      ASSERT_TRUE(q.Pop(&now, &tag)) << "pop " << k;
      const Owner who = owner[tag];
      if (who.kind == Kind::kEpisode) {
        schedule(now + rng.UniformTime(Sec(10), Min(6)), Kind::kEpisode, -1);
      } else if (who.kind == Kind::kRelease && !ms_timers_on) {
        // Spacing widens to seconds: the timer re-arms one to ten seconds out.
        schedule(now + rng.UniformTime(Sec(1), Sec(10)), Kind::kRelease, who.timer);
      } else if (who.kind == Kind::kRelease) {
        Timer& t = timers[who.timer];
        // Replaces the budget armed one period ago; if it already fired, the
        // id is stale and the cancel is a no-op in both (the re-arm a
        // schedule).
        if (rearm) {
          owner.push_back(Owner{Kind::kBudget, who.timer});
          t.budget_id = q.Rearm(t.budget_id, now + t.budget);
        } else {
          ASSERT_TRUE(q.Cancel(t.budget_id)) << "pop " << k;
          t.budget_id = schedule(now + t.budget, Kind::kBudget, who.timer);
        }
        schedule(now + t.period, Kind::kRelease, who.timer);
      }
      ASSERT_TRUE(q.SizesAgree()) << "pop " << k;
      if (q.calendar().stats().calendar_retunes != retunes) {
        (q.calendar().bucket_width() < width ? narrower : wider)++;
      }
    }
  };
  run(40000, true);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_GT(narrower, 0);
  const int wider_in_phase1 = wider;
  run(60000, false);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_GT(wider, wider_in_phase1);

  while (!q.empty()) {
    uint64_t tag = 0;
    ASSERT_TRUE(q.Pop(&now, &tag));
  }
  EXPECT_TRUE(q.SizesAgree());
  EXPECT_TRUE(q.FiredSequencesAgree());
}

TEST(Determinism, EventQueueBackendsAgreeThroughRetunes) { RetuneLockstep(false); }

TEST(Determinism, EventQueueBackendsAgreeThroughRetunesWithRearms) { RetuneLockstep(true); }

// Re-arm case by case: a pending id at its own time with and without a
// later-sequenced event at that time, moves ahead of the minimum and within
// the queue, stale (fired, cancelled, inert) ids, and a copy of a re-armed id.
// A re-armed event must sort exactly where a cancel and a fresh schedule put
// it: behind everything scheduled at its time before the re-arm.
TEST(Determinism, EventQueueBackendsAgreeOnEachRearmCase) {
  Lockstep q;
  Lockstep::Ids a = q.Schedule(Us(1));  // Tag 0.
  Lockstep::Ids b = q.Schedule(Us(1));  // Tag 1.
  a = q.Rearm(a, Us(1));                // Tag 2: moves behind tag 1.
  Lockstep::Ids c = q.Schedule(Us(2));  // Tag 3.
  c = q.Rearm(c, Us(2));                // Tag 4: last at its time, stays put.
  Lockstep::Ids d = q.Schedule(Us(2));  // Tag 5: behind tag 4.
  Lockstep::Ids e = q.Schedule(Us(3));  // Tag 6.
  Lockstep::Ids e_copy = e;
  e = q.Rearm(e, Us(1) / 2);            // Tag 7: the new minimum.
  ASSERT_TRUE(q.Cancel(e_copy));        // Stale in both: a no-op.
  Lockstep::Ids f = q.Schedule(Us(5));  // Tag 8.
  f = q.Rearm(f, Us(4));                // Tag 9: moves earlier.
  ASSERT_TRUE(q.SizesAgree());

  TimeNs now = 0;
  uint64_t tag = 0;
  ASSERT_TRUE(q.Pop(&now, &tag));
  ASSERT_TRUE(q.Pop(&now, &tag));
  ASSERT_EQ(tag, 1u);
  b = q.Rearm(b, Us(2));  // Tag 10: b fired, so this schedules anew.
  ASSERT_TRUE(q.Cancel(d));
  d = q.Rearm(d, Us(2));                // Tag 11: cancelled, schedules anew.
  q.Rearm(Lockstep::Ids{}, Us(3));      // Tag 12: inert, schedules anew.
  ASSERT_TRUE(q.SizesAgree());
  while (!q.empty()) {
    ASSERT_TRUE(q.Pop(&now, &tag));
  }
  EXPECT_TRUE(q.FiredSequencesAgree());
  EXPECT_EQ(q.fired(), (std::vector<uint64_t>{7, 1, 2, 4, 10, 11, 12, 9}));
  // A re-arm of a pending event counts one cancel and one schedule; of a
  // stale id, one schedule.
  EXPECT_EQ(q.calendar().stats().schedules, 13u);
  EXPECT_EQ(q.calendar().stats().cancels, 5u);
}

// Randomized re-arms of pending and stale ids, to their own time, to another
// event's time and to fresh times, on a coarse time grid so that times
// collide, while the ring grows (phase 0) and while it drains (phase 1).
TEST(Determinism, EventQueueBackendsAgreeOverRandomizedRearms) {
  Lockstep q;
  Rng rng(0x4EA4Dull);
  std::vector<Lockstep::Ids> ids;  // Pending and stale alike.
  TimeNs now = 0;
  auto some = [&] {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
  };
  auto on_grid = [&] { return now + rng.UniformTime(0, 200) * 1000; };
  // Per phase, the roll cuts below which an op schedules, re-arms, cancels;
  // the rest pop.
  constexpr int kCuts[2][3] = {{60, 80, 85}, {2, 22, 30}};
  uint64_t resizes = 0;
  for (int phase = 0; phase < 2; ++phase) {
    for (int op = 0; op < 60000; ++op) {
      int roll = static_cast<int>(rng.UniformInt(0, 99));
      if (ids.empty() || roll < kCuts[phase][0]) {
        ids.push_back(q.Schedule(on_grid()));
      } else if (roll < kCuts[phase][1]) {
        size_t pick = some();
        // The model's id keeps its time after it fired.
        TimeNs when = ids[pick].oracle.time;
        int64_t to = rng.UniformInt(0, 2);
        if (to == 1) {
          when = ids[some()].oracle.time;
        } else if (to == 2) {
          when = on_grid();
        }
        ids[pick] = q.Rearm(ids[pick], std::max(when, now));
      } else if (roll < kCuts[phase][2]) {
        size_t pick = some();
        ASSERT_TRUE(q.Cancel(ids[pick])) << "phase " << phase << " op " << op;
        ids[pick] = ids.back();
        ids.pop_back();
      } else if (!q.empty()) {
        uint64_t tag = 0;
        ASSERT_TRUE(q.Pop(&now, &tag)) << "phase " << phase << " op " << op;
      }
      ASSERT_TRUE(q.SizesAgree()) << "phase " << phase << " op " << op;
    }
    EXPECT_GT(q.calendar().stats().calendar_resizes, resizes) << "phase " << phase;
    resizes = q.calendar().stats().calendar_resizes;
  }
  while (!q.empty()) {
    uint64_t tag = 0;
    ASSERT_TRUE(q.Pop(&now, &tag));
  }
  EXPECT_TRUE(q.FiredSequencesAgree());
}

}  // namespace
}  // namespace rtvirt
