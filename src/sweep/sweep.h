// Supervised shard runner (DESIGN.md §8).
//
// Runs N independent shards — typically one seeded Experiment/Federation
// each — every attempt in its own forked child, at most config.jobs at once,
// under a shard supervisor that treats the harness itself as a fallible
// layer:
//
//   * crash containment — the fork boundary contains everything a shard can
//     do: an RTVIRT_CHECK abort, a sanitizer error, a signal, a hang;
//   * watchdog — a per-attempt wall-clock deadline; a child still running at
//     its deadline is SIGKILLed, recorded as timed out, and the shard
//     re-enters the retry queue;
//   * bounded retry — exponential backoff between attempts with a per-shard
//     attempt budget; a shard that exhausts its budget is quarantined (never
//     re-dispatched) and reported as an unresolved outcome, never silently
//     dropped;
//   * deterministic merge — results are keyed by shard index and the merged
//     report is assembled in shard order after the sweep completes, so it is
//     byte-identical for any jobs count and any completion order.
//
// The retry/deadline/quarantine *policy* lives in ShardSupervisor, which is
// clock-injected so the watchdog and backoff schedules are unit-testable
// with a fake clock; RunSweep adds the children and one single-threaded loop
// that drives them (POSIX fork/pipe/poll).

#ifndef SRC_SWEEP_SWEEP_H_
#define SRC_SWEEP_SWEEP_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace rtvirt::sweep {

// Wall-clock abstraction so supervisor policy tests can drive time by hand.
// Milliseconds since an arbitrary epoch; only differences are used.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowMs() = 0;
  virtual void SleepMs(int64_t ms) = 0;
};

// The process-wide monotonic clock (CLOCK_MONOTONIC granularity).
Clock* RealClock();

// What a shard body hands back on a completed attempt.
struct ShardResult {
  bool ok = true;      // false = contained, retryable failure (see reason).
  std::string reason;  // Failure description when !ok.
  std::string report;  // Shard-local report text, merged in shard order.
  // Crash-resume reporting (DESIGN.md §10): bodies that continued from a
  // persisted checkpoint instead of simulating from t=0 set resumed and the
  // virtual instant the checkpoint restored to, so the merged report
  // distinguishes resumed attempts from cold restarts.
  bool resumed = false;
  int64_t resume_point_ns = -1;
};

// Handed to the shard body on each attempt.
struct ShardContext {
  int shard = 0;
  int attempt = 1;    // 1-based.
  uint64_t seed = 0;  // DeriveSeed(config.base_seed, shard).
  // Crash-resume plumbing: empty unless SweepConfig::checkpoint_dir is set,
  // then "<dir>/shard.<idx>.ckpt" — the same path on every attempt of a
  // shard, so a retry can pick up the previous attempt's last good
  // checkpoint. The sweep only carries the path; the body owns the file
  // (persist cadence below, atomic writes via ckpt::WriteFileAtomic).
  std::string checkpoint_path;
  // Suggested persist cadence in *virtual* milliseconds, from
  // SweepConfig::checkpoint_every_ms (0 = checkpointing off).
  int64_t checkpoint_every_ms = 0;
};

using ShardFn = std::function<ShardResult(const ShardContext&)>;

// How one attempt ended (supervisor input).
enum class AttemptKind {
  kClean,         // ShardResult.ok.
  kFailed,        // ShardResult.ok == false.
  kCheckFailure,  // The child aborted on an RTVIRT_CHECK violation.
  kCrash,         // The child died on a signal or exited without a result.
  kTimeout,       // Watchdog deadline expired; the child was SIGKILLed.
};

// Terminal per-shard outcome. kFailed/kTimeout are terminal only when the
// budget is a single attempt; with retries the terminal failure outcome is
// kExhausted (the last failure's kind/reason is preserved alongside).
enum class Outcome { kClean, kFailed, kTimeout, kExhausted };
const char* OutcomeName(Outcome outcome);

struct ShardOutcome {
  Outcome outcome = Outcome::kFailed;
  int attempts = 0;
  bool recovered = false;        // Clean after at least one failed attempt.
  AttemptKind last_failure = AttemptKind::kClean;  // kClean = never failed.
  std::string reason;            // Last failure reason ("" if never failed).
  std::string report;            // From the successful attempt ("" if none).
  // From the successful attempt's ShardResult: it continued from a persisted
  // checkpoint (vs a cold restart from t=0), and from which virtual instant.
  bool resumed = false;
  int64_t resume_point_ns = -1;
};

struct SweepReport {
  std::vector<ShardOutcome> shards;  // Indexed by shard id.
  int clean = 0;       // Terminal kClean (includes recovered).
  int recovered = 0;
  int unresolved = 0;  // Terminal kFailed/kTimeout/kExhausted.
  int retries = 0;     // Dispatches beyond each shard's first attempt.
  int resumed = 0;     // Clean shards whose winning attempt resumed from a checkpoint.
  int timeouts = 0;        // Watchdog firings (any attempt).
  int check_failures = 0;  // RTVIRT_CHECK aborts (any attempt).
  int crashes = 0;         // Other child deaths (any attempt).

  bool ok() const { return unresolved == 0; }
  // Deterministic merged text: per-shard outcome lines in shard index order
  // followed by aggregate counters. Byte-identical across jobs counts and
  // completion orders for a deterministic shard function.
  std::string Merged() const;
};

struct SweepConfig {
  int jobs = 1;  // Child processes at once; <=1 runs one at a time.
  int max_attempts = 3;           // Per-shard attempt budget (>=1).
  int64_t shard_deadline_ms = 0;  // Watchdog deadline per attempt; 0 = off.
  int64_t backoff_initial_ms = 10;  // Delay after the first failure, growing
  int64_t backoff_cap_ms = 1000;    // by kBackoffFactor per retry, saturating here.
  uint64_t base_seed = 1;  // ShardContext::seed = DeriveSeed(base_seed, shard).
  Clock* clock = nullptr;  // Null = RealClock(). Injected by policy tests.
  // Crash-resume (DESIGN.md §10). When checkpoint_dir is non-empty, every
  // attempt of shard i receives ShardContext::checkpoint_path =
  // "<dir>/shard.<i>.ckpt" (the directory must exist; the caller owns its
  // lifecycle — stale files from a previous sweep will be resumed from).
  // checkpoint_every_ms asks the shard body to persist its latest checkpoint
  // every that many virtual milliseconds; 0 disables checkpointing even with
  // a directory set.
  std::string checkpoint_dir;
  int64_t checkpoint_every_ms = 0;
};

inline constexpr int64_t kNoWake = std::numeric_limits<int64_t>::max();

// Retry/watchdog/quarantine policy state machine. RunSweep's loop drives it;
// tests drive it directly with a fake clock.
class ShardSupervisor {
 public:
  ShardSupervisor(const SweepConfig& config, int num_shards);

  // Pops the lowest-indexed shard that is ready to run at `now_ms` (pending,
  // or waiting with an expired backoff). Returns -1 if none.
  int NextRunnable(int64_t now_ms);
  // Earliest backoff expiry among waiting shards, or kNoWake.
  int64_t NextWakeMs() const;
  bool AllDone() const;

  struct AttemptTicket {
    int shard = -1;
    int attempt = 0;        // 1-based.
    int64_t deadline_ms = kNoWake;  // Watchdog deadline for this attempt.
  };
  // Marks `shard` (previously returned by NextRunnable) running.
  AttemptTicket BeginAttempt(int shard, int64_t now_ms);

  // Records a finished attempt. Returns false (and changes nothing) if the
  // attempt is stale — superseded by a watchdog timeout for that shard.
  bool RecordResult(int shard, int attempt, const ShardResult& result, int64_t now_ms);
  bool RecordFailure(int shard, int attempt, AttemptKind kind, const std::string& reason,
                     int64_t now_ms);

  // Backoff delay scheduled after failure number `failures` (1-based).
  int64_t BackoffDelayMs(int failures) const;

  // Valid once AllDone(); shard outcomes are final from then on.
  SweepReport BuildReport() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  enum class State { kPending, kWaiting, kRunning, kTerminal };
  struct Shard {
    State state = State::kPending;
    int attempts = 0;            // Attempts started.
    int64_t not_before_ms = 0;   // kWaiting: backoff expiry.
    ShardOutcome out;
  };

  void Terminalize(Shard& s, Outcome outcome);
  void FailOrRetry(Shard& s, AttemptKind kind, const std::string& reason,
                   int64_t now_ms);

  SweepConfig config_;
  std::vector<Shard> shards_;
  int terminal_ = 0;
  int retries_ = 0;
  int timeouts_ = 0;
  int check_failures_ = 0;
  int crashes_ = 0;
};

// Runs `fn` over shards [0, num_shards) under supervision, each attempt in a
// forked child: `fn` never runs in the caller, so its side effects reach the
// caller only through its ShardResult (and files it writes). Blocks until all
// shards are terminal (clean, or failed with their budget exhausted).
SweepReport RunSweep(const SweepConfig& config, int num_shards, const ShardFn& fn);

}  // namespace rtvirt::sweep

#endif  // SRC_SWEEP_SWEEP_H_
