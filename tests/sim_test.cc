#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "tests/event_oracle.h"

namespace rtvirt {
namespace {

// Records the payload of every event it receives, in firing order.
struct Recorder : EventTarget {
  std::vector<uint64_t> fired;
  void OnEvent(uint32_t /*kind*/, uint64_t payload) override { fired.push_back(payload); }
};

template <typename Queue>
void Drain(Queue& q) {
  while (!q.empty()) {
    q.PopNext().event.Fire();
  }
}

// The calendar queue and the std::set reference model the differential test
// trusts (tests/event_oracle.h) must honor the exact same (time,
// insertion-seq) contract, so every ordering/cancellation test runs against
// each of them.
enum class Backend { kCalendar, kOracle };

class EventQueueBackends : public ::testing::TestWithParam<Backend> {
 protected:
  template <typename Body>
  void WithQueue(Body body) {
    if (GetParam() == Backend::kCalendar) {
      EventQueue q;
      body(q);
    } else {
      SetEventQueue q;
      body(q);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, EventQueueBackends,
                         ::testing::Values(Backend::kCalendar, Backend::kOracle),
                         [](const auto& p) {
                           return p.param == Backend::kCalendar ? "Calendar" : "Oracle";
                         });

TEST_P(EventQueueBackends, OrdersByTime) {
  WithQueue([](auto& q) {
    Recorder r;
    q.Schedule(30, Event{&r, 0, 3});
    q.Schedule(10, Event{&r, 0, 1});
    q.Schedule(20, Event{&r, 0, 2});
    Drain(q);
    EXPECT_EQ(r.fired, (std::vector<uint64_t>{1, 2, 3}));
  });
}

TEST_P(EventQueueBackends, FifoWithinSameTimestamp) {
  WithQueue([](auto& q) {
    Recorder r;
    for (uint64_t i = 0; i < 5; ++i) {
      q.Schedule(7, Event{&r, 0, i});
    }
    Drain(q);
    EXPECT_EQ(r.fired, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  });
}

TEST_P(EventQueueBackends, CancelPreventsFiring) {
  WithQueue([](auto& q) {
    Recorder r;
    auto id = q.Schedule(5, Event{&r, 7, 1});
    q.Schedule(6, Event{&r, 0, 2});
    Event cancelled = q.Cancel(id);
    EXPECT_EQ(cancelled.target, &r);
    EXPECT_EQ(cancelled.kind, 7u);
    EXPECT_EQ(cancelled.payload, 1u);
    EXPECT_EQ(q.size(), 1u);
    Drain(q);
    EXPECT_EQ(r.fired, (std::vector<uint64_t>{2}));
  });
}

TEST_P(EventQueueBackends, CancelAfterFireIsNoop) {
  WithQueue([](auto& q) {
    Recorder r;
    auto id = q.Schedule(1, Event{&r, 0, 0});
    q.PopNext().event.Fire();
    EXPECT_EQ(q.Cancel(id).target, nullptr);  // Must not corrupt the live count.
    EXPECT_TRUE(q.empty());
    q.Schedule(2, Event{&r, 0, 0});
    EXPECT_EQ(q.size(), 1u);
  });
}

TEST_P(EventQueueBackends, DoubleCancelIsNoop) {
  WithQueue([](auto& q) {
    Recorder r;
    auto id = q.Schedule(1, Event{&r, 0, 0});
    auto id2 = id;
    q.Cancel(id);
    EXPECT_EQ(q.Cancel(id2).target, nullptr);
    EXPECT_TRUE(q.empty());
  });
}

TEST_P(EventQueueBackends, NextTimeSkipsCancelled) {
  WithQueue([](auto& q) {
    Recorder r;
    auto id = q.Schedule(5, Event{&r, 0, 0});
    q.Schedule(9, Event{&r, 0, 0});
    q.Cancel(id);
    EXPECT_EQ(q.NextTime(), 9);
  });
}

// Calendar arena nodes are recycled: an EventId held across its node's reuse
// by a later Schedule() must become inert, not cancel the new tenant. The
// generation stamp in the id is what makes this safe.
TEST(EventQueueCalendar, StaleCancelAfterNodeReuseIsNoop) {
  EventQueue q;
  Recorder r;
  auto stale = q.Schedule(1, Event{&r, 0, 0});
  q.PopNext();  // Frees the node back to the arena.
  EXPECT_TRUE(q.empty());
  q.Schedule(2, Event{&r, 0, 1});  // Reuses the freed node.
  q.Cancel(stale);                 // Generation mismatch: must be a no-op.
  EXPECT_EQ(q.size(), 1u);
  Drain(q);
  EXPECT_EQ(r.fired, (std::vector<uint64_t>{1}));
}

// Growing through several calendar resizes (bucket-ring rebuilds) must not
// perturb the (time, seq) total order.
TEST(EventQueueCalendar, OrderSurvivesResizes) {
  EventQueue q;
  // Deterministic scatter of timestamps with duplicates, far more entries
  // than the initial 64 buckets so the ring grows repeatedly.
  std::vector<int64_t> times;
  uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    times.push_back(static_cast<int64_t>(x >> 24) % 1000000);
  }
  Recorder r;
  for (size_t i = 0; i < times.size(); ++i) {
    q.Schedule(times[i], Event{&r, 0, i});
  }
  EXPECT_GT(q.stats().calendar_resizes, 0u);
  Drain(q);
  ASSERT_EQ(r.fired.size(), times.size());
  for (size_t k = 1; k < r.fired.size(); ++k) {
    int64_t prev = times[r.fired[k - 1]];
    int64_t cur = times[r.fired[k]];
    if (cur == prev) {
      EXPECT_GT(r.fired[k], r.fired[k - 1]);  // FIFO among equal timestamps.
    } else {
      EXPECT_GT(cur, prev);
    }
  }
}

// After warm-up, the calendar recycles everything: popping and rescheduling
// at the same population must not carve new arena chunks.
TEST(EventQueueCalendar, SteadyStateReusesArenaNodes) {
  EventQueue q;
  Recorder r;
  for (int i = 0; i < 2000; ++i) {
    q.Schedule(10 + i, Event{&r, 0, 0});
  }
  uint64_t warm_allocs = q.stats().node_allocs;
  int64_t t = 10;
  for (int i = 0; i < 50000; ++i) {
    t = q.NextTime();
    q.PopNext();
    q.Schedule(t + 2000, Event{&r, 0, 0});
  }
  EXPECT_EQ(q.stats().node_allocs, warm_allocs);
  EXPECT_EQ(q.size(), 2000u);
}

// The Figure 4 event pattern on a raw queue: millisecond periodic timers,
// each release re-arming itself and a budget timer that the next release
// cancels, beside a few far-future episode timers. The episode timers are
// scheduled first, so they are pending at the first occupancy resize.
class Fig4Shape : public EventTarget {
 public:
  Fig4Shape(int timers, int episodes) {
    for (int e = 0; e < episodes; ++e) {
      q_.Schedule(rng_.UniformTime(Sec(10), Min(6)), Event{this, kEpisode, 0});
    }
    for (int i = 0; i < timers; ++i) {
      TimeNs period = rng_.UniformTime(Ms(1), Ms(4));
      timers_.push_back(Timer{period, EventQueue::EventId{}});
      q_.Schedule(period * (i + 1) / timers, Event{this, kRelease, static_cast<uint64_t>(i)});
    }
  }

  EventQueue& queue() { return q_; }

  void Pump(int pops) {
    for (int k = 0; k < pops; ++k) {
      EventQueue::Fired fired = q_.PopNext();
      now_ = fired.time;
      fired.event.Fire();
    }
  }

  // Mean list nodes walked per insert over the next `pops` pops.
  double MeanWalk(int pops) {
    EventQueueStats before = q_.stats();
    Pump(pops);
    return static_cast<double>(q_.stats().insert_walk - before.insert_walk) /
           static_cast<double>(q_.stats().schedules - before.schedules);
  }

  void OnEvent(uint32_t kind, uint64_t payload) override {
    if (kind == kEpisode) {
      q_.Schedule(now_ + rng_.UniformTime(Sec(10), Min(6)), Event{this, kEpisode, 0});
      return;
    }
    Timer& t = timers_[payload];
    q_.Cancel(t.budget);
    t.budget = q_.Schedule(now_ + t.period + kNsPerUs, Event{this, kBudget, payload});
    q_.Schedule(now_ + t.period, Event{this, kRelease, payload});
  }

 private:
  enum : uint32_t { kRelease, kBudget, kEpisode };
  struct Timer {
    TimeNs period;
    EventQueue::EventId budget;
  };

  EventQueue q_;
  Rng rng_{4};
  TimeNs now_ = 0;
  std::vector<Timer> timers_;
};

// At the initial width the Figure 4 shape's millisecond timers crowd each
// bucket, so inserts walk long lists; once retunes have converged the width,
// the mean walk over one retune window (4096 inserts) is at most 2.
TEST(EventQueueCalendar, RetuneBoundsInsertWalkOnFig4Shape) {
  Fig4Shape shape(256, 4);
  EXPECT_GT(shape.MeanWalk(1000), 2.0);  // Fewer inserts than one window.
  EXPECT_EQ(shape.queue().stats().calendar_retunes, 0u);
  shape.Pump(50000);
  EXPECT_GT(shape.queue().stats().calendar_retunes, 0u);
  EXPECT_LE(shape.MeanWalk(2048), 2.0);
}

// A retune relinks nodes without moving them: an id whose event fired before
// the retune cancels as a no-op, and one still pending cancels its event.
TEST(EventQueueCalendar, IdsSurviveRetune) {
  Fig4Shape shape(256, 4);
  EventQueue& q = shape.queue();
  Recorder r;
  EventQueue::EventId stale = q.Schedule(1, Event{&r, 0, 1});
  EventQueue::EventId pending = q.Schedule(Min(30), Event{&r, 0, 2});
  shape.Pump(20000);
  ASSERT_GT(q.stats().calendar_retunes, 0u);
  EXPECT_EQ(r.fired, (std::vector<uint64_t>{1}));
  const size_t live = q.size();
  EXPECT_EQ(q.Cancel(stale).target, nullptr);
  EXPECT_EQ(q.size(), live);
  Event cancelled = q.Cancel(pending);
  EXPECT_EQ(cancelled.target, &r);
  EXPECT_EQ(cancelled.payload, 2u);
  EXPECT_EQ(q.size(), live - 1);
}

// Retunes change the bucket width, never the bucket count: with the
// population steady, the width moves while the resize count stays put.
TEST(EventQueueCalendar, RetunesDoNotCountAsResizes) {
  Fig4Shape shape(256, 4);
  shape.Pump(1000);  // Every timer has armed its budget: population steady.
  const EventQueueStats settled = shape.queue().stats();
  const TimeNs width = shape.queue().bucket_width();
  shape.Pump(50000);
  EXPECT_GT(shape.queue().stats().calendar_retunes, settled.calendar_retunes);
  EXPECT_NE(shape.queue().bucket_width(), width);
  EXPECT_EQ(shape.queue().stats().calendar_resizes, settled.calendar_resizes);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  TimeNs seen = -1;
  sim.At(100, [&] { seen = sim.Now(); });
  sim.RunUntil(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.At(100, [&] { ++fired; });
  sim.At(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.RunUntil(300);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    ++chain;
    if (chain < 10) {
      sim.After(10, next);
    }
  };
  sim.After(10, next);
  sim.RunAll();
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.events_processed(), 10u);
}

// Tagged events and closures share one (time, seq) order.
TEST(Simulator, TaggedEventsAndClosuresInterleaveInScheduleOrder) {
  Simulator sim;
  Recorder r;
  sim.At(10, &r, 0, 1);
  sim.At(10, [&] { r.fired.push_back(2); });
  sim.At(5, &r, 0, 0);
  sim.At(10, &r, 0, 3);
  sim.RunAll();
  EXPECT_EQ(r.fired, (std::vector<uint64_t>{0, 1, 2, 3}));
}

// The closure adapter releases a cancelled closure (and its captures) at
// once.
TEST(Simulator, CancelledClosureIsReleased) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  Simulator::EventId id = sim.At(10, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  sim.Cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  int fired = 0;
  sim.At(20, [&] { ++fired; });
  sim.RunAll();
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(fired, 1);
}

// The event-ordering invariants are RTVIRT_CHECKs: active in every build
// type (not compiled out under NDEBUG), fatal on violation.
TEST(SimulatorDeathTest, SchedulingAnEventInThePastIsFatal) {
  Simulator sim;
  sim.At(100, [] {});
  sim.RunAll();
  ASSERT_EQ(sim.Now(), 100);
  EXPECT_DEATH(sim.At(50, [] {}), "event scheduled in the past");
}

TEST(SimulatorDeathTest, PoppingAnEmptyQueueIsFatal) {
  EventQueue q;
  EXPECT_DEATH(q.PopNext(), "empty event queue");
}

TEST(Simulator, AfterZeroRunsAtSameTimeInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(50, [&] {
    order.push_back(1);
    sim.After(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 50);
}

}  // namespace
}  // namespace rtvirt
