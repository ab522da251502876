#include "src/sweep/sweep.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/sweep/check_capture.h"
#include "src/sweep/proc_isolate.h"

namespace rtvirt::sweep {

namespace {

// Growth of the retry delay per failed attempt (SweepConfig::backoff_*).
constexpr double kBackoffFactor = 2.0;

class MonotonicClock : public Clock {
 public:
  int64_t NowMs() override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepMs(int64_t ms) override {
    if (ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
};

std::string FirstLine(const std::string& s) {
  size_t end = s.find('\n');
  std::string line = end == std::string::npos ? s : s.substr(0, end);
  constexpr size_t kMaxLine = 240;
  if (line.size() > kMaxLine) {
    line.resize(kMaxLine);
  }
  return line;
}

}  // namespace

Clock* RealClock() {
  static MonotonicClock clock;
  return &clock;
}

const char* AttemptKindName(AttemptKind kind) {
  switch (kind) {
    case AttemptKind::kClean:
      return "clean";
    case AttemptKind::kFailed:
      return "failed";
    case AttemptKind::kCheckFailure:
      return "check-failure";
    case AttemptKind::kCrash:
      return "crash";
    case AttemptKind::kTimeout:
      return "timeout";
  }
  return "?";
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kClean:
      return "clean";
    case Outcome::kFailed:
      return "failed";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kExhausted:
      return "exhausted";
  }
  return "?";
}

std::string SweepReport::Merged() const {
  std::ostringstream os;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardOutcome& s = shards[i];
    os << "shard " << i << ": " << OutcomeName(s.outcome) << " attempts=" << s.attempts;
    if (s.recovered) {
      os << " recovered";
    }
    if (s.resumed) {
      os << " resumed@" << s.resume_point_ns << "ns";
    }
    if (!s.reason.empty()) {
      os << " [" << (s.outcome == Outcome::kClean ? "last failure: " : "") << s.reason
         << "]";
    }
    os << "\n";
  }
  os << "sweep: shards=" << shards.size() << " clean=" << clean
     << " recovered=" << recovered << " unresolved=" << unresolved
     << " retries=" << retries << " timeouts=" << timeouts
     << " check_failures=" << check_failures << " crashes=" << crashes;
  if (resumed > 0) {
    // Only with checkpointing enabled, so default-path reports keep their
    // exact historical bytes.
    os << " resumed=" << resumed;
  }
  os << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// ShardSupervisor

ShardSupervisor::ShardSupervisor(const SweepConfig& config, int num_shards)
    : config_(config), shards_(static_cast<size_t>(num_shards < 0 ? 0 : num_shards)) {
  if (config_.max_attempts < 1) {
    config_.max_attempts = 1;
  }
  if (config_.backoff_initial_ms < 0) {
    config_.backoff_initial_ms = 0;
  }
  if (config_.backoff_cap_ms < config_.backoff_initial_ms) {
    config_.backoff_cap_ms = config_.backoff_initial_ms;
  }
}

int ShardSupervisor::NextRunnable(int64_t now_ms) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state == State::kPending ||
        (s.state == State::kWaiting && s.not_before_ms <= now_ms)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int64_t ShardSupervisor::NextWakeMs() const {
  int64_t wake = kNoWake;
  for (const Shard& s : shards_) {
    if (s.state == State::kPending) {
      return 0;
    }
    if (s.state == State::kWaiting && s.not_before_ms < wake) {
      wake = s.not_before_ms;
    }
  }
  return wake;
}

bool ShardSupervisor::AllDone() const {
  return terminal_ == static_cast<int>(shards_.size());
}

ShardSupervisor::AttemptTicket ShardSupervisor::BeginAttempt(int shard, int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.attempts > 0) {
    ++retries_;
  }
  ++s.attempts;
  s.state = State::kRunning;
  s.deadline_ms =
      config_.shard_deadline_ms > 0 ? now_ms + config_.shard_deadline_ms : kNoWake;
  return AttemptTicket{shard, s.attempts, s.deadline_ms};
}

int64_t ShardSupervisor::BackoffDelayMs(int failures) const {
  double delay = static_cast<double>(config_.backoff_initial_ms);
  for (int i = 1; i < failures; ++i) {
    delay *= kBackoffFactor;
    if (delay >= static_cast<double>(config_.backoff_cap_ms)) {
      return config_.backoff_cap_ms;
    }
  }
  int64_t ms = static_cast<int64_t>(delay);
  return ms > config_.backoff_cap_ms ? config_.backoff_cap_ms : ms;
}

void ShardSupervisor::Terminalize(Shard& s, Outcome outcome) {
  s.state = State::kTerminal;
  s.out.outcome = outcome;
  s.out.attempts = s.attempts;
  ++terminal_;
}

void ShardSupervisor::FailOrRetry(Shard& s, AttemptKind kind, const std::string& reason,
                                  int64_t now_ms) {
  s.out.last_failure = kind;
  s.out.reason = FirstLine(reason);
  switch (kind) {
    case AttemptKind::kTimeout:
      ++timeouts_;
      break;
    case AttemptKind::kCheckFailure:
      ++check_failures_;
      break;
    case AttemptKind::kCrash:
      ++crashes_;
      break;
    default:
      break;
  }
  if (s.attempts >= config_.max_attempts) {
    // Budget exhausted: the shard is quarantined — never re-dispatched — and
    // reported as a counted unresolved outcome. With a single-attempt budget
    // the outcome keeps the failure's own name (failed/timeout); with
    // retries it is kExhausted, the last failure preserved in reason.
    Outcome terminal = Outcome::kExhausted;
    if (config_.max_attempts == 1) {
      terminal = kind == AttemptKind::kTimeout ? Outcome::kTimeout : Outcome::kFailed;
    }
    Terminalize(s, terminal);
    return;
  }
  s.state = State::kWaiting;
  s.not_before_ms = now_ms + BackoffDelayMs(s.attempts);
}

bool ShardSupervisor::RecordResult(int shard, int attempt, const ShardResult& result,
                                   int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.state != State::kRunning || s.attempts != attempt) {
    return false;  // Stale: a watchdog timeout already superseded this attempt.
  }
  if (!result.ok) {
    FailOrRetry(s, AttemptKind::kFailed, result.reason, now_ms);
    return true;
  }
  s.out.recovered = s.attempts > 1;
  s.out.report = result.report;
  s.out.resumed = result.resumed;
  s.out.resume_point_ns = result.resume_point_ns;
  Terminalize(s, Outcome::kClean);
  return true;
}

bool ShardSupervisor::RecordFailure(int shard, int attempt, AttemptKind kind,
                                    const std::string& reason, int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.state != State::kRunning || s.attempts != attempt) {
    return false;
  }
  FailOrRetry(s, kind, reason, now_ms);
  return true;
}

std::vector<ShardSupervisor::AttemptTicket> ShardSupervisor::ExpiredAttempts(
    int64_t now_ms) const {
  std::vector<AttemptTicket> expired;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    if (s.state == State::kRunning && s.deadline_ms != kNoWake &&
        s.deadline_ms <= now_ms) {
      expired.push_back(AttemptTicket{static_cast<int>(i), s.attempts, s.deadline_ms});
    }
  }
  return expired;
}

SweepReport ShardSupervisor::BuildReport() const {
  SweepReport r;
  r.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    r.shards.push_back(s.out);
    if (s.out.outcome == Outcome::kClean) {
      ++r.clean;
      if (s.out.recovered) {
        ++r.recovered;
      }
      if (s.out.resumed) {
        ++r.resumed;
      }
    } else {
      ++r.unresolved;
    }
  }
  r.retries = retries_;
  r.timeouts = timeouts_;
  r.check_failures = check_failures_;
  r.crashes = crashes_;
  return r;
}

// ---------------------------------------------------------------------------
// Attempt execution (shared by the serial path and the pool workers)

namespace {

struct AttemptOutcome {
  AttemptKind kind = AttemptKind::kFailed;
  ShardResult result;
  std::string reason;
};

ShardContext MakeContext(const SweepConfig& config, int shard, int attempt,
                         const std::atomic<bool>* cancel) {
  ShardContext ctx;
  ctx.shard = shard;
  ctx.attempt = attempt;
  ctx.seed = DeriveSeed(config.base_seed, static_cast<uint64_t>(shard));
  ctx.cancel = cancel;
  if (!config.checkpoint_dir.empty() && config.checkpoint_every_ms > 0) {
    ctx.checkpoint_path =
        config.checkpoint_dir + "/shard." + std::to_string(shard) + ".ckpt";
    ctx.checkpoint_every_ms = config.checkpoint_every_ms;
  }
  return ctx;
}

AttemptOutcome RunAttempt(const SweepConfig& config, const ShardFn& fn,
                          const ShardContext& ctx) {
  AttemptOutcome out;
  if (config.isolation == Isolation::kProcess && ProcessIsolationSupported()) {
    ProcAttemptOutcome p = RunShardAttemptInProcess(
        fn, ctx, config.shard_deadline_ms > 0 ? config.shard_deadline_ms : 0);
    out.kind = p.kind;
    out.result = std::move(p.result);
    out.reason = std::move(p.reason);
    return out;
  }
  // kThread (or fork-less platform): run in place with RTVIRT_CHECK failures
  // captured and rethrown as CheckFailure so one shard's invariant violation
  // does not take the harness down.
  try {
    ScopedCheckCapture capture;
    out.result = fn(ctx);
    out.kind = out.result.ok ? AttemptKind::kClean : AttemptKind::kFailed;
    out.reason = out.result.reason;
  } catch (const CheckFailure& f) {
    out.kind = AttemptKind::kCheckFailure;
    // The diagnostic is two lines (location+expr, then the formatted
    // message); flatten so the whole thing survives FirstLine in the report.
    out.reason = f.message;
    while (!out.reason.empty() && out.reason.back() == '\n') {
      out.reason.pop_back();
    }
    for (char& c : out.reason) {
      if (c == '\n') {
        c = ' ';
      }
    }
    out.result.ok = false;
  } catch (const std::exception& e) {
    out.kind = AttemptKind::kFailed;
    out.reason = std::string("exception: ") + e.what();
    out.result.ok = false;
    out.result.reason = out.reason;
  }
  return out;
}

// Feed a finished attempt into the supervisor (caller holds the pool lock,
// or is the single serial thread).
void RecordOutcome(ShardSupervisor& sup, int shard, int attempt, AttemptOutcome out,
                   int64_t now_ms) {
  if (out.kind == AttemptKind::kClean || out.kind == AttemptKind::kFailed) {
    sup.RecordResult(shard, attempt, out.result, now_ms);
  } else {
    sup.RecordFailure(shard, attempt, out.kind, out.reason, now_ms);
  }
}

// ---------------------------------------------------------------------------
// Serial execution: jobs<=1, or the degradation path when no worker thread
// could be spawned. The watchdog can still fire in kProcess isolation (the
// child is killed from the parent's wait loop); in kThread isolation a
// serial shard cannot be preempted, so deadlines are inert there.

SweepReport RunSerial(const SweepConfig& config, int num_shards, const ShardFn& fn,
                      Clock* clock) {
  ShardSupervisor sup(config, num_shards);
  std::atomic<bool> cancel{false};
  while (!sup.AllDone()) {
    int64_t now = clock->NowMs();
    int shard = sup.NextRunnable(now);
    if (shard < 0) {
      int64_t wake = sup.NextWakeMs();
      clock->SleepMs(wake == kNoWake ? 1 : wake - now);
      continue;
    }
    ShardSupervisor::AttemptTicket t = sup.BeginAttempt(shard, now);
    cancel.store(false, std::memory_order_relaxed);
    AttemptOutcome out =
        RunAttempt(config, fn, MakeContext(config, shard, t.attempt, &cancel));
    RecordOutcome(sup, shard, t.attempt, std::move(out), clock->NowMs());
  }
  SweepReport r = sup.BuildReport();
  r.serial_fallback = true;
  return r;
}

// ---------------------------------------------------------------------------
// Threaded execution

struct Pool {
  Pool(const SweepConfig& cfg, int num_shards, const ShardFn& shard_fn)
      : config(cfg), sup(cfg, num_shards), fn(shard_fn) {}

  const SweepConfig config;
  std::mutex mu;
  std::condition_variable work_cv;  // Workers + watchdog wait here.
  std::condition_variable done_cv;  // RunSweep waits here.
  ShardSupervisor sup;
  const ShardFn& fn;
  bool shutdown = false;
  int live_workers = 0;    // Worker threads that have not exited yet.
  int abandoned_live = 0;  // Subset: abandoned (timed-out) and still running.

  struct WorkerSlot {
    int shard = -1;  // Shard of the in-flight attempt, -1 when idle.
    int attempt = 0;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool abandoned = false;
    std::thread thread;
  };
  // Append-only so abandoned workers can still reach their slot safely.
  std::vector<std::unique_ptr<WorkerSlot>> slots;

  void NotifyAllLocked() {
    work_cv.notify_all();
    done_cv.notify_all();
  }
};

void WorkerLoop(const std::shared_ptr<Pool>& pool, Pool::WorkerSlot* slot) {
  std::unique_lock<std::mutex> lock(pool->mu);
  while (!pool->shutdown && !slot->abandoned) {
    int64_t now = pool->config.clock->NowMs();
    int shard = pool->sup.NextRunnable(now);
    if (shard < 0) {
      if (pool->sup.AllDone()) {
        pool->shutdown = true;
        pool->NotifyAllLocked();
        break;
      }
      // Sleep until the earliest backoff expiry — capped, so clock drift or
      // a missed notify cannot strand the pool — or until work is posted.
      int64_t wake = pool->sup.NextWakeMs();
      int64_t wait_ms = wake == kNoWake ? 100 : wake - now;
      if (wait_ms < 1) {
        wait_ms = 1;
      } else if (wait_ms > 100) {
        wait_ms = 100;
      }
      pool->work_cv.wait_for(lock, std::chrono::milliseconds(wait_ms));
      continue;
    }
    ShardSupervisor::AttemptTicket t = pool->sup.BeginAttempt(shard, now);
    slot->shard = shard;
    slot->attempt = t.attempt;
    slot->cancel = std::make_shared<std::atomic<bool>>(false);
    std::shared_ptr<std::atomic<bool>> cancel = slot->cancel;
    lock.unlock();
    AttemptOutcome out = RunAttempt(
        pool->config, pool->fn, MakeContext(pool->config, shard, t.attempt, cancel.get()));
    lock.lock();
    if (slot->abandoned) {
      // The watchdog recorded a timeout for this attempt and replaced this
      // worker; the late result is stale (RecordResult would reject it too).
      break;
    }
    slot->shard = -1;
    RecordOutcome(pool->sup, shard, t.attempt, std::move(out),
                  pool->config.clock->NowMs());
    if (pool->sup.AllDone()) {
      pool->shutdown = true;
    }
    pool->NotifyAllLocked();
  }
  --pool->live_workers;
  if (slot->abandoned) {
    --pool->abandoned_live;
  }
  pool->done_cv.notify_all();
}

// Caller holds pool->mu.
bool SpawnWorkerLocked(const std::shared_ptr<Pool>& pool) {
  auto slot = std::make_unique<Pool::WorkerSlot>();
  Pool::WorkerSlot* raw = slot.get();
  pool->slots.push_back(std::move(slot));
  try {
    raw->thread = std::thread(WorkerLoop, pool, raw);
  } catch (const std::system_error&) {
    pool->slots.pop_back();
    return false;
  }
  ++pool->live_workers;
  return true;
}

// Wall-clock watchdog (kThread isolation only; kProcess deadlines are
// enforced by the forking parent). Marks expired attempts timed out, tells
// the body to cancel, abandons the stuck worker and spawns a replacement.
void WatchdogLoop(const std::shared_ptr<Pool>& pool) {
  std::unique_lock<std::mutex> lock(pool->mu);
  int64_t poll_ms = pool->config.shard_deadline_ms / 4;
  if (poll_ms < 5) {
    poll_ms = 5;
  } else if (poll_ms > 250) {
    poll_ms = 250;
  }
  while (!pool->shutdown) {
    pool->work_cv.wait_for(lock, std::chrono::milliseconds(poll_ms));
    if (pool->shutdown) {
      break;
    }
    int64_t now = pool->config.clock->NowMs();
    for (const ShardSupervisor::AttemptTicket& t : pool->sup.ExpiredAttempts(now)) {
      char reason[96];
      std::snprintf(reason, sizeof(reason), "watchdog: exceeded %lld ms shard deadline",
                    static_cast<long long>(pool->config.shard_deadline_ms));
      if (!pool->sup.RecordFailure(t.shard, t.attempt, AttemptKind::kTimeout, reason,
                                   now)) {
        continue;
      }
      for (auto& s : pool->slots) {
        if (!s->abandoned && s->shard == t.shard && s->attempt == t.attempt) {
          s->cancel->store(true, std::memory_order_relaxed);
          s->abandoned = true;
          ++pool->abandoned_live;
          s->thread.detach();
          if (!pool->shutdown && !pool->sup.AllDone()) {
            SpawnWorkerLocked(pool);
          }
          break;
        }
      }
      if (pool->sup.AllDone()) {
        pool->shutdown = true;
      }
      pool->NotifyAllLocked();
    }
  }
}

}  // namespace

SweepReport RunSweep(const SweepConfig& user_config, int num_shards, const ShardFn& fn) {
  SweepConfig config = user_config;
  if (config.clock == nullptr) {
    config.clock = RealClock();
  }
  if (num_shards <= 0) {
    return ShardSupervisor(config, 0).BuildReport();
  }
  if (config.isolation == Isolation::kProcess && !ProcessIsolationSupported()) {
    config.isolation = Isolation::kThread;
  }
  int jobs = config.jobs;
  if (jobs > num_shards) {
    jobs = num_shards;
  }
  if (jobs <= 1) {
    return RunSerial(config, num_shards, fn, config.clock);
  }

  auto pool = std::make_shared<Pool>(config, num_shards, fn);
  {
    std::lock_guard<std::mutex> lock(pool->mu);
    int spawned = 0;
    for (int i = 0; i < jobs; ++i) {
      if (SpawnWorkerLocked(pool)) {
        ++spawned;
      }
    }
    if (spawned == 0) {
      // Thread creation failed outright: degrade to serial in the caller.
      return RunSerial(config, num_shards, fn, config.clock);
    }
  }
  std::thread watchdog;
  bool have_watchdog =
      config.shard_deadline_ms > 0 && config.isolation == Isolation::kThread;
  if (have_watchdog) {
    try {
      watchdog = std::thread(WatchdogLoop, pool);
    } catch (const std::system_error&) {
      have_watchdog = false;
    }
  }

  SweepReport report;
  {
    std::unique_lock<std::mutex> lock(pool->mu);
    while (!pool->shutdown) {
      pool->done_cv.wait_for(lock, std::chrono::milliseconds(50));
      if (!pool->shutdown && pool->live_workers - pool->abandoned_live == 0) {
        // Every worker died or was abandoned and no replacement could be
        // spawned: drain the remaining shards serially instead of hanging.
        while (!pool->sup.AllDone()) {
          int64_t now = pool->config.clock->NowMs();
          int shard = pool->sup.NextRunnable(now);
          if (shard < 0) {
            int64_t wake = pool->sup.NextWakeMs();
            lock.unlock();
            config.clock->SleepMs(wake == kNoWake ? 1 : wake - now);
            lock.lock();
            continue;
          }
          ShardSupervisor::AttemptTicket t = pool->sup.BeginAttempt(shard, now);
          std::atomic<bool> cancel{false};
          lock.unlock();
          AttemptOutcome out =
              RunAttempt(config, fn, MakeContext(config, shard, t.attempt, &cancel));
          lock.lock();
          RecordOutcome(pool->sup, shard, t.attempt, std::move(out),
                        pool->config.clock->NowMs());
        }
        pool->shutdown = true;
        pool->NotifyAllLocked();
      }
    }
    // Give abandoned-but-cooperative bodies a moment to observe their cancel
    // flag and exit; anything still running past the grace period is leaked
    // (and reported) — hard hangs belong under kProcess isolation.
    auto grace_end = std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
    while (pool->abandoned_live > 0 && std::chrono::steady_clock::now() < grace_end) {
      pool->done_cv.wait_until(lock, grace_end);
    }
    report = pool->sup.BuildReport();
    report.leaked_threads = pool->abandoned_live;
  }
  // Join everything that was not abandoned (abandoned threads are detached
  // and keep the pool alive through their shared_ptr).
  for (auto& slot : pool->slots) {
    if (!slot->abandoned && slot->thread.joinable()) {
      slot->thread.join();
    }
  }
  if (have_watchdog) {
    {
      std::lock_guard<std::mutex> lock(pool->mu);
      pool->NotifyAllLocked();
    }
    watchdog.join();
  }
  return report;
}

}  // namespace rtvirt::sweep
