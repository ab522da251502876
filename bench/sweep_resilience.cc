// Sweep-runner resilience evaluation (robustness PR): injects the failure
// taxonomy of DESIGN.md §8 — flaky soft failures, RTVIRT_CHECK invariant
// violations, hard aborts and hangs — into scripted shard bodies and checks
// that the supervisor turns every one of them into a recorded outcome
// instead of a dead harness:
//
//   containment - a check failure or abort inside one shard leaves every
//                 other shard's result intact;
//   recovery    - transient failures clear within the attempt budget and are
//                 reported as recovered, with retries/timeouts/crashes
//                 tallied;
//   exhaustion  - a permanently broken shard ends as a counted, reported
//                 `exhausted` outcome (rep.ok() == false), never a silent
//                 drop or a hang;
//   determinism - the merged report is byte-identical across --jobs=1/4/8
//                 even with crashes and watchdog kills in the mix.
//
// Shard behavior is scripted purely from (shard, attempt), so every run of
// every scenario is reproducible.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/sweep/sweep.h"

namespace rtvirt::bench {
namespace {

using sweep::AttemptKind;
using sweep::Outcome;
using sweep::RunSweep;
using sweep::ShardContext;
using sweep::ShardResult;
using sweep::SweepConfig;
using sweep::SweepReport;

bool Check(const std::string& what, bool ok, bool& failed) {
  std::cout << "check: " << what << " => " << (ok ? "PASS" : "FAIL") << "\n";
  failed = failed || !ok;
  return ok;
}

// Containment: flaky, check-failing and hanging shards all recover on a
// retry; the clean shard is never disturbed.
void Containment(bool& failed) {
  Header("Containment: flaky / check-failure / hang recover within the attempt "
         "budget");
  SweepConfig cfg;
  cfg.jobs = 4;
  cfg.max_attempts = 3;
  cfg.shard_deadline_ms = 1500;
  cfg.backoff_initial_ms = 1;
  SweepReport rep = RunSweep(cfg, 4, [](const ShardContext& ctx) {
    ShardResult r;
    switch (ctx.shard) {
      case 1:  // Soft failure on the first attempt.
        if (ctx.attempt == 1) {
          r.ok = false;
          r.reason = "injected flaky failure";
          return r;
        }
        break;
      case 2:  // Scheduler-invariant violation on the first attempt.
        RTVIRT_CHECK(ctx.attempt > 1, "injected invariant violation (shard %d)",
                     ctx.shard);
        break;
      case 3:  // Hang on the first attempt until the watchdog's SIGKILL.
        if (ctx.attempt == 1) {
          for (int i = 0; i < 10000; ++i) {
            sweep::RealClock()->SleepMs(10);
          }
        }
        break;
      default:
        break;
    }
    r.report = "shard " + std::to_string(ctx.shard) + " payload";
    return r;
  });
  std::cout << rep.Merged();
  Check("all shards terminal and clean (clean=4, unresolved=0)",
        rep.ok() && rep.clean == 4, failed);
  Check("three shards recovered after injected failures", rep.recovered == 3, failed);
  Check("check failure captured, not fatal", rep.check_failures == 1, failed);
  Check("watchdog reclaimed the hang",
        rep.timeouts >= 1 &&
            rep.shards[3].last_failure == AttemptKind::kTimeout,
        failed);
  Check("untouched shard report survived",
        rep.shards[0].report == "shard 0 payload", failed);
}

// Exhaustion: a permanently broken shard consumes its budget and becomes a
// counted `exhausted` outcome while its neighbors finish clean.
void Exhaustion(bool& failed) {
  Header("Exhaustion: a permanently failing shard is quarantined and counted, "
         "not silently dropped");
  SweepConfig cfg;
  cfg.jobs = 2;
  cfg.max_attempts = 3;
  cfg.backoff_initial_ms = 1;
  SweepReport rep = RunSweep(cfg, 3, [](const ShardContext& ctx) {
    ShardResult r;
    if (ctx.shard == 1) {
      r.ok = false;
      r.reason = "injected permanent failure";
      return r;
    }
    r.report = "shard " + std::to_string(ctx.shard) + " payload";
    return r;
  });
  std::cout << rep.Merged();
  Check("sweep reports the unresolved shard (ok() == false, unresolved=1)",
        !rep.ok() && rep.unresolved == 1, failed);
  Check("broken shard exhausted its full budget",
        rep.shards[1].outcome == Outcome::kExhausted && rep.shards[1].attempts == 3,
        failed);
  Check("neighbors unaffected (clean=2)", rep.clean == 2, failed);
}

// Determinism: with hard aborts and watchdog SIGKILLs in the mix, the merged
// report is byte-identical for any jobs count.
void MergeDeterminism(bool& failed) {
  Header("Merge determinism: byte-identical report across jobs=1/4/8 with "
         "crashes and watchdog kills injected");
  const sweep::ShardFn fn = [](const ShardContext& ctx) {
    ShardResult r;
    switch (ctx.shard % 4) {
      case 1:  // Hard crash on the first attempt.
        // SIGKILL, not abort(): uncatchable, so no sanitizer signal handler
        // writes a PID-bearing report to the captured stderr — the crash
        // reason stays byte-stable under ASan/TSan too.
        if (ctx.attempt == 1) {
          std::raise(SIGKILL);
        }
        break;
      case 2:  // Hard hang on the first attempt: only SIGKILL reclaims it.
        if (ctx.attempt == 1) {
          for (int i = 0; i < 10000; ++i) {
            sweep::RealClock()->SleepMs(10);
          }
        }
        break;
      case 3:  // Flaky soft failure.
        if (ctx.attempt == 1) {
          r.ok = false;
          r.reason = "injected flaky failure";
          return r;
        }
        break;
      default:
        break;
    }
    r.report = "shard " + std::to_string(ctx.shard) + " seed " +
               std::to_string(ctx.seed);
    return r;
  };
  SweepConfig cfg;
  cfg.max_attempts = 2;
  cfg.shard_deadline_ms = 2000;
  cfg.backoff_initial_ms = 1;
  cfg.base_seed = 7;
  std::string merged_serial;
  bool identical = true;
  bool contained = true;
  for (int jobs : {1, 4, 8}) {
    cfg.jobs = jobs;
    SweepReport rep = RunSweep(cfg, 8, fn);
    if (!(rep.ok() && rep.crashes == 2 && rep.timeouts == 2)) {
      contained = false;
      std::cout << "unexpected counters at jobs=" << jobs << ":\n" << rep.Merged();
    }
    if (jobs == 1) {
      merged_serial = rep.Merged();
      std::cout << merged_serial;
    } else if (rep.Merged() != merged_serial) {
      identical = false;
      std::cout << "merged report diverged at jobs=" << jobs << ":\n" << rep.Merged();
    }
  }
  Check("aborts and hangs contained at every jobs count (crashes=2, timeouts=2)",
        contained, failed);
  Check("merged report byte-identical across jobs=1/4/8", identical, failed);
}

}  // namespace
}  // namespace rtvirt::bench

int main() {
  bool failed = false;
  rtvirt::bench::Containment(failed);
  rtvirt::bench::Exhaustion(failed);
  rtvirt::bench::MergeDeterminism(failed);
  return failed ? 1 : 0;
}
