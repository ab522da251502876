// Supervised sweep runner (src/sweep): supervisor policy under a fake clock
// (backoff schedule, attempt budget + quarantine, watchdog deadline expiry,
// stale-attempt rejection), seed-stream derivation, and the fork-per-attempt
// runner itself — merge determinism across jobs counts and completion
// orders, retry recovery, containment of RTVIRT_CHECK aborts, exceptions,
// hard aborts, leaks (ASan builds) and hangs, and a parent that sleeps while
// its children run.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sweep/sweep.h"

namespace rtvirt::sweep {
namespace {

// Hand-driven clock: SleepMs advances time, so RunSweep's backoffs with no
// child running are instantaneous and fully scripted.
class FakeClock : public Clock {
 public:
  int64_t NowMs() override { return now_ms_; }
  void SleepMs(int64_t ms) override { now_ms_ += ms; }
  void Advance(int64_t ms) { now_ms_ += ms; }

 private:
  int64_t now_ms_ = 0;
};

SweepConfig PolicyConfig() {
  SweepConfig cfg;
  cfg.max_attempts = 3;
  cfg.backoff_initial_ms = 10;
  cfg.backoff_cap_ms = 50;
  return cfg;
}

TEST(DeriveSeedTest, StreamsAreDistinctAndStable) {
  static_assert(DeriveSeed(1, 0) == DeriveSeed(1, 0));
  std::set<uint64_t> seen;
  for (uint64_t base : {1ull, 2ull, 42ull}) {
    for (uint64_t stream = 0; stream < 16; ++stream) {
      seen.insert(DeriveSeed(base, stream));
    }
  }
  EXPECT_EQ(seen.size(), 3u * 16u);  // No collisions across bases or streams.
  // Adjacent bases do not produce correlated low bits (the old seed*7919+17
  // style left neighboring seeds one small affine step apart).
  EXPECT_NE(DeriveSeed(1, 0) ^ DeriveSeed(2, 0), DeriveSeed(2, 0) ^ DeriveSeed(3, 0));
}

TEST(ShardSupervisorTest, BackoffScheduleGrowsAndSaturates) {
  ShardSupervisor sup(PolicyConfig(), 1);
  EXPECT_EQ(sup.BackoffDelayMs(1), 10);
  EXPECT_EQ(sup.BackoffDelayMs(2), 20);
  EXPECT_EQ(sup.BackoffDelayMs(3), 40);
  EXPECT_EQ(sup.BackoffDelayMs(4), 50);  // Capped.
  EXPECT_EQ(sup.BackoffDelayMs(9), 50);
}

TEST(ShardSupervisorTest, RetriesThenQuarantinesAtBudget) {
  ShardSupervisor sup(PolicyConfig(), 1);
  // Attempt 1 fails -> waiting with 10 ms backoff.
  ASSERT_EQ(sup.NextRunnable(0), 0);
  ShardSupervisor::AttemptTicket t = sup.BeginAttempt(0, 0);
  EXPECT_EQ(t.attempt, 1);
  EXPECT_TRUE(sup.RecordFailure(0, 1, AttemptKind::kFailed, "flaky", 5));
  EXPECT_FALSE(sup.AllDone());
  EXPECT_EQ(sup.NextRunnable(5), -1);  // Backoff not yet expired.
  EXPECT_EQ(sup.NextWakeMs(), 15);
  // Attempt 2 fails -> 20 ms backoff.
  ASSERT_EQ(sup.NextRunnable(15), 0);
  t = sup.BeginAttempt(0, 15);
  EXPECT_EQ(t.attempt, 2);
  EXPECT_TRUE(sup.RecordFailure(0, 2, AttemptKind::kFailed, "flaky", 16));
  EXPECT_EQ(sup.NextWakeMs(), 36);
  // Attempt 3 fails -> budget exhausted, quarantined: never runnable again.
  ASSERT_EQ(sup.NextRunnable(36), 0);
  t = sup.BeginAttempt(0, 36);
  EXPECT_EQ(t.attempt, 3);
  EXPECT_TRUE(sup.RecordFailure(0, 3, AttemptKind::kFailed, "flaky", 37));
  EXPECT_TRUE(sup.AllDone());
  EXPECT_EQ(sup.NextRunnable(1000), -1);

  SweepReport rep = sup.BuildReport();
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_EQ(rep.shards[0].outcome, Outcome::kExhausted);
  EXPECT_EQ(rep.shards[0].attempts, 3);
  EXPECT_EQ(rep.shards[0].reason, "flaky");
  EXPECT_EQ(rep.unresolved, 1);
  EXPECT_EQ(rep.retries, 2);
  EXPECT_FALSE(rep.ok());
}

TEST(ShardSupervisorTest, WatchdogDeadlineExpiryAndStaleResultRejection) {
  SweepConfig cfg = PolicyConfig();
  cfg.shard_deadline_ms = 100;
  ShardSupervisor sup(cfg, 2);
  ASSERT_EQ(sup.NextRunnable(0), 0);
  ShardSupervisor::AttemptTicket t = sup.BeginAttempt(0, 0);
  EXPECT_EQ(t.deadline_ms, 100);

  // The watchdog times the attempt out; the stuck attempt's eventual result
  // and failure reports are both stale and must change nothing.
  EXPECT_TRUE(sup.RecordFailure(0, t.attempt, AttemptKind::kTimeout, "watchdog", 101));
  ShardResult late;
  late.report = "late";
  EXPECT_FALSE(sup.RecordResult(0, t.attempt, late, 150));
  EXPECT_FALSE(sup.RecordFailure(0, t.attempt, AttemptKind::kFailed, "late", 150));

  // The shard re-enters the queue after backoff and can still finish clean.
  ASSERT_EQ(sup.NextRunnable(111), 0);
  t = sup.BeginAttempt(0, 111);
  EXPECT_EQ(t.attempt, 2);
  ShardResult ok;
  ok.report = "r0";
  EXPECT_TRUE(sup.RecordResult(0, t.attempt, ok, 120));

  ASSERT_EQ(sup.NextRunnable(120), 1);
  t = sup.BeginAttempt(1, 120);
  EXPECT_TRUE(sup.RecordResult(1, t.attempt, ok, 130));
  EXPECT_TRUE(sup.AllDone());

  SweepReport rep = sup.BuildReport();
  EXPECT_EQ(rep.shards[0].outcome, Outcome::kClean);
  EXPECT_TRUE(rep.shards[0].recovered);
  EXPECT_EQ(rep.shards[0].last_failure, AttemptKind::kTimeout);
  EXPECT_EQ(rep.shards[0].report, "r0");
  EXPECT_EQ(rep.timeouts, 1);
  EXPECT_EQ(rep.clean, 2);
  EXPECT_EQ(rep.recovered, 1);
}

TEST(ShardSupervisorTest, SingleAttemptBudgetKeepsTerminalFailureNames) {
  SweepConfig cfg = PolicyConfig();
  cfg.max_attempts = 1;
  ShardSupervisor sup(cfg, 2);
  sup.BeginAttempt(sup.NextRunnable(0), 0);
  EXPECT_TRUE(sup.RecordFailure(0, 1, AttemptKind::kFailed, "bad", 1));
  sup.BeginAttempt(sup.NextRunnable(1), 1);
  EXPECT_TRUE(sup.RecordFailure(1, 1, AttemptKind::kTimeout, "hung", 2));
  SweepReport rep = sup.BuildReport();
  EXPECT_EQ(rep.shards[0].outcome, Outcome::kFailed);
  EXPECT_EQ(rep.shards[1].outcome, Outcome::kTimeout);
  EXPECT_EQ(rep.retries, 0);
}

std::string DetReport(const ShardContext& ctx) {
  return "shard=" + std::to_string(ctx.shard) + " seed=" + std::to_string(ctx.seed);
}

TEST(RunSweepTest, MergedReportByteIdenticalAcrossJobsCounts) {
  // Completion order is shuffled by shard-dependent sleeps; the merged report
  // and every per-shard report must not care.
  const ShardFn fn = [](const ShardContext& ctx) {
    RealClock()->SleepMs((ctx.shard * 13) % 7);
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  };
  SweepConfig cfg;
  cfg.base_seed = 99;
  std::string merged_serial;
  std::vector<std::string> reports_serial;
  for (int jobs : {1, 4, 8}) {
    cfg.jobs = jobs;
    SweepReport rep = RunSweep(cfg, 9, fn);
    EXPECT_TRUE(rep.ok());
    std::vector<std::string> reports;
    for (const ShardOutcome& o : rep.shards) {
      reports.push_back(o.report);
    }
    if (jobs == 1) {
      merged_serial = rep.Merged();
      reports_serial = reports;
      // Shard seeds come from the centralized derivation.
      for (int s = 0; s < 9; ++s) {
        EXPECT_EQ(rep.shards[s].report,
                  "shard=" + std::to_string(s) +
                      " seed=" + std::to_string(DeriveSeed(99, s)));
      }
    } else {
      EXPECT_EQ(rep.Merged(), merged_serial) << "jobs=" << jobs;
      EXPECT_EQ(reports, reports_serial) << "jobs=" << jobs;
    }
  }
}

TEST(RunSweepTest, FlakyShardRecoversWithinBudget) {
  FakeClock clock;
  SweepConfig cfg;
  cfg.jobs = 1;
  cfg.max_attempts = 3;
  cfg.clock = &clock;
  SweepReport rep = RunSweep(cfg, 3, [](const ShardContext& ctx) {
    ShardResult r;
    if (ctx.shard == 1 && ctx.attempt < 3) {
      r.ok = false;
      r.reason = "flaky attempt " + std::to_string(ctx.attempt);
      return r;
    }
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.clean, 3);
  EXPECT_EQ(rep.recovered, 1);
  EXPECT_EQ(rep.retries, 2);
  EXPECT_TRUE(rep.shards[1].recovered);
  EXPECT_EQ(rep.shards[1].attempts, 3);
  EXPECT_EQ(rep.shards[1].last_failure, AttemptKind::kFailed);
  EXPECT_EQ(rep.shards[1].reason, "flaky attempt 2");
}

TEST(RunSweepTest, ExhaustedShardIsCountedNotDropped) {
  FakeClock clock;
  SweepConfig cfg;
  cfg.jobs = 1;
  cfg.max_attempts = 2;
  cfg.clock = &clock;
  SweepReport rep = RunSweep(cfg, 2, [](const ShardContext& ctx) {
    ShardResult r;
    if (ctx.shard == 0) {
      r.ok = false;
      r.reason = "always broken";
    } else {
      r.report = DetReport(ctx);
    }
    return r;
  });
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[0].outcome, Outcome::kExhausted);
  EXPECT_EQ(rep.shards[0].attempts, 2);
  EXPECT_EQ(rep.unresolved, 1);
  EXPECT_EQ(rep.clean, 1);
  EXPECT_NE(rep.Merged().find("exhausted"), std::string::npos);
}

TEST(RunSweepTest, CheckFailureInShardIsContained) {
  SweepConfig cfg;
  cfg.jobs = 2;
  cfg.max_attempts = 2;
  SweepReport rep = RunSweep(cfg, 2, [](const ShardContext& ctx) {
    std::fputs("stderr output before the failing check\n", stderr);
    RTVIRT_CHECK(ctx.shard != 1 || ctx.attempt > 1, "invariant dies on shard %d",
                 ctx.shard);
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.check_failures, 1);
  EXPECT_TRUE(rep.shards[1].recovered);
  EXPECT_EQ(rep.shards[1].last_failure, AttemptKind::kCheckFailure);
  // The whole diagnostic, on one line: location, expression and message.
  const std::string& reason = rep.shards[1].reason;
  EXPECT_NE(reason.find("fatal invariant violation at"), std::string::npos) << reason;
  EXPECT_NE(reason.find("sweep_test.cc"), std::string::npos) << reason;
  EXPECT_NE(reason.find("ctx.shard != 1 || ctx.attempt > 1"), std::string::npos)
      << reason;
  EXPECT_NE(reason.find("invariant dies on shard 1"), std::string::npos) << reason;
  EXPECT_EQ(reason.find('\n'), std::string::npos) << reason;
}

TEST(RunSweepTest, ProcessIsolationRoundTripsResults) {
  SweepConfig cfg;
  cfg.jobs = 2;
  cfg.max_attempts = 1;
  SweepReport rep = RunSweep(cfg, 4, [](const ShardContext& ctx) {
    ShardResult r;
    if (ctx.shard == 2) {
      r.ok = false;
      r.reason = "soft failure from child";
      return r;
    }
    if (ctx.shard == 3) {
      throw std::runtime_error("thrown from child");
    }
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_EQ(rep.clean, 2);
  EXPECT_EQ(rep.shards[0].report, "shard=0 seed=" + std::to_string(DeriveSeed(1, 0)));
  EXPECT_EQ(rep.shards[2].outcome, Outcome::kFailed);
  EXPECT_EQ(rep.shards[2].reason, "soft failure from child");
  EXPECT_EQ(rep.shards[3].outcome, Outcome::kFailed);
  EXPECT_EQ(rep.shards[3].last_failure, AttemptKind::kFailed);
  EXPECT_EQ(rep.shards[3].reason, "exception: thrown from child");
}

TEST(RunSweepTest, ProcessIsolationContainsHardAbort) {
  SweepConfig cfg;
  cfg.jobs = 1;
  cfg.max_attempts = 2;
  cfg.backoff_initial_ms = 1;
  SweepReport rep = RunSweep(cfg, 1, [](const ShardContext& ctx) {
    if (ctx.attempt == 1) {
      std::abort();  // Runs in the forked child only.
    }
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_TRUE(rep.ok()) << rep.Merged();
  EXPECT_EQ(rep.crashes, 1);
  EXPECT_TRUE(rep.shards[0].recovered);
  EXPECT_EQ(rep.shards[0].last_failure, AttemptKind::kCrash);
  EXPECT_NE(rep.shards[0].reason.find("signal"), std::string::npos);
}

TEST(RunSweepTest, ProcessIsolationKillsHardHang) {
  SweepConfig cfg;
  cfg.jobs = 1;
  cfg.max_attempts = 2;
  cfg.shard_deadline_ms = 500;
  cfg.backoff_initial_ms = 1;
  SweepReport rep = RunSweep(cfg, 1, [](const ShardContext& ctx) {
    if (ctx.attempt == 1) {
      // A hang no cancel flag can reach — only SIGKILL reclaims it.
      for (int i = 0; i < 10000; ++i) {
        RealClock()->SleepMs(10);
      }
    }
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_TRUE(rep.ok()) << rep.Merged();
  EXPECT_GE(rep.timeouts, 1);
  EXPECT_TRUE(rep.shards[0].recovered);
  EXPECT_NE(rep.shards[0].reason.find("watchdog"), std::string::npos);
}

// Leaks are found in the child: it exits before LeakSanitizer's exit-time
// check could run, so it runs the check itself and reports a leak as a crash.
int* volatile g_leak_sink = nullptr;

TEST(RunSweepTest, LeakingShardIsReportedAsCrash) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs an ASan build (LeakSanitizer)";
#else
  const char* options = std::getenv("ASAN_OPTIONS");
  if (options != nullptr && std::strstr(options, "detect_leaks=0") != nullptr) {
    GTEST_SKIP() << "LeakSanitizer is off (detect_leaks=0)";
  }
  SweepConfig cfg;
  cfg.max_attempts = 1;
  SweepReport rep = RunSweep(cfg, 2, [](const ShardContext& ctx) {
    if (ctx.shard == 1) {
      // Each block is unreachable once the next replaces it.
      for (int i = 0; i < 64; ++i) {
        g_leak_sink = new int[8]{};
      }
      g_leak_sink = nullptr;
    }
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  });
  EXPECT_EQ(rep.shards[0].outcome, Outcome::kClean);
  EXPECT_EQ(rep.shards[1].outcome, Outcome::kFailed);
  EXPECT_EQ(rep.shards[1].last_failure, AttemptKind::kCrash);
  EXPECT_NE(rep.shards[1].reason.find("LeakSanitizer"), std::string::npos)
      << rep.shards[1].reason;
#endif
}

double CpuMs(const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; }

double SelfCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return CpuMs(usage.ru_utime) + CpuMs(usage.ru_stime);
}

TEST(RunSweepTest, SupervisorSleepsWhileChildrenRun) {
  // One slot, shards pending behind a running child: the loop must block in
  // poll() until the child finishes, not wake on the pending shards.
  SweepConfig cfg;
  cfg.jobs = 1;
  double before = SelfCpuMs();
  SweepReport rep = RunSweep(cfg, 3, [](const ShardContext& ctx) {
    RealClock()->SleepMs(300);
    ShardResult r;
    r.report = DetReport(ctx);
    return r;
  });
  double used = SelfCpuMs() - before;
  EXPECT_TRUE(rep.ok()) << rep.Merged();
  EXPECT_LT(used, 225.0) << "parent CPU over a 900 ms sweep";
}

}  // namespace
}  // namespace rtvirt::sweep
