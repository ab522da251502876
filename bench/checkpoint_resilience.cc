// Checkpoint/restore resilience evaluation (DESIGN.md §10):
//
//   crash-resume  - a supervised sweep whose shards persist checkpoints every
//                   50 virtual ms gets crash (SIGKILL), hard-hang (watchdog
//                   SIGKILL) and soft failures injected on every first
//                   attempt; the retry resumes from the last good checkpoint
//                   and the per-shard payload reports (workload counters +
//                   final state digest) must be byte-identical to an
//                   uninterrupted fault-free sweep of the same seeds, at
//                   --jobs = 1, 4 and 8;
//   cheap resume  - resumes restart from the last persisted boundary, never
//                   t=0: re-simulated virtual time (fail point minus resume
//                   point, from the merged report's resumed@ counters) stays
//                   under 10% of the shard horizon;
//   divergence    - the replay-verify auditor, fed a deliberately perturbed
//                   twin (one stolen RNG draw after interval 3), pinpoints
//                   the first divergent interval and names the forked
//                   component (rng) — every other section digest still
//                   matches.
//
// --smoke runs the single jobs=4 crash-resume scenario (the TSan CI job).
// Exits nonzero on any gate failure.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/checkpoint.h"
#include "src/runner/ckpt_scenario.h"
#include "src/sweep/sweep.h"

namespace rtvirt::bench {
namespace {

using sweep::Outcome;
using sweep::RunSweep;
using sweep::ShardContext;
using sweep::ShardResult;
using sweep::SweepConfig;
using sweep::SweepReport;

constexpr TimeNs kHorizon = Ms(800);
constexpr int64_t kCheckpointEveryMs = 50;
// First boundary at or past 70% of the horizon: the injected failure point.
constexpr TimeNs kFailBoundary = Ms(600);
constexpr int kShards = 6;

bool Check(const std::string& what, bool ok, bool& failed) {
  std::cout << "check: " << what << " => " << (ok ? "PASS" : "FAIL") << "\n";
  failed = failed || !ok;
  return ok;
}

// Failure script per shard, applied on every first attempt of an injected
// sweep. Two clean shards bracket the faulty ones so containment is visible.
enum class Mode { kClean, kCrash, kHang, kSoftFail };
Mode ModeOf(int shard) {
  switch (shard) {
    case 1:
    case 4:
      return Mode::kCrash;
    case 2:
      return Mode::kHang;
    case 3:
      return Mode::kSoftFail;
    default:
      return Mode::kClean;
  }
}

// The shard body: the canonical checkpoint scenario, run boundary by
// boundary. With a checkpoint path it persists at every boundary and resumes
// from the newest parseable file; a corrupt or unreadable file falls back to
// a cold start (loud in the report, never silent partial state).
ShardResult ShardBody(const ShardContext& ctx, bool inject) {
  CkptScenarioOptions opt;
  opt.seed = ctx.seed;
  opt.horizon = kHorizon;
  auto s = BuildCkptScenario(opt);
  ShardResult r;
  TimeNs start_t = 0;
  if (!ctx.checkpoint_path.empty()) {
    std::string bytes;
    if (ckpt::ReadFileToString(ctx.checkpoint_path, &bytes)) {
      ckpt::Image image;
      std::string err = ckpt::Image::Parse(bytes, &image);
      if (err.empty()) {
        err = s->exp->RestoreCheckpoint(image);
      }
      if (err.empty()) {
        start_t = s->exp->sim().Now();
        r.resumed = true;
        r.resume_point_ns = start_t;
      } else {
        // Restore may have partially cleared the experiment: rebuild from
        // scratch rather than continue on half-applied state.
        s = BuildCkptScenario(opt);
      }
    }
  }
  if (!r.resumed) {
    s->Start();
  }
  const TimeNs interval = Ms(kCheckpointEveryMs);
  ckpt::StateDigest final_digest;
  for (TimeNs boundary = interval; boundary <= kHorizon; boundary += interval) {
    if (boundary <= start_t) {
      continue;
    }
    s->exp->Run(boundary);
    if (inject && ctx.attempt == 1 && boundary >= kFailBoundary) {
      switch (ModeOf(ctx.shard)) {
        case Mode::kCrash:
          std::raise(SIGKILL);  // Hard death of the shard's forked child.
          break;
        case Mode::kHang:
          for (;;) {  // Hard hang: only the watchdog SIGKILL ends this.
            sweep::RealClock()->SleepMs(100);
          }
          break;
        case Mode::kSoftFail:
          r.ok = false;
          r.reason = "injected soft failure at t=" + std::to_string(boundary) + "ns";
          return r;
        case Mode::kClean:
          break;
      }
    }
    ckpt::Image image;
    std::string err = s->exp->SaveCheckpoint(&image);
    if (!err.empty()) {
      r.ok = false;
      r.reason = err;
      return r;
    }
    if (boundary == kHorizon) {
      final_digest = ckpt::DigestOf(image);
    }
    if (!ctx.checkpoint_path.empty()) {
      err = ckpt::WriteFileAtomic(ctx.checkpoint_path, image.Serialize());
      if (!err.empty()) {
        r.ok = false;
        r.reason = err;
        return r;
      }
    }
  }
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(final_digest.combined));
  r.report = "shard " + std::to_string(ctx.shard) + " seed=" + std::to_string(ctx.seed) +
             " completed=" + std::to_string(s->monitor.total_completed()) +
             " misses=" + std::to_string(s->monitor.total_misses()) + " final=" +
             digest_hex + "\n";
  return r;
}

std::string PayloadOf(const SweepReport& rep) {
  std::string payload;
  for (const auto& shard : rep.shards) {
    payload += shard.report;
  }
  return payload;
}

// A fresh private directory for one sweep's checkpoint files.
std::string MakeCheckpointDir() {
  char tmpl[] = "/tmp/rtvirt_ckpt_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::cerr << "mkdtemp failed\n";
    std::exit(1);
  }
  return dir;
}

void RemoveCheckpointDir(const std::string& dir) {
  for (int i = 0; i < kShards; ++i) {
    std::remove((dir + "/shard." + std::to_string(i) + ".ckpt").c_str());
  }
  ::rmdir(dir.c_str());
}

void CrashResumeSweep(int jobs, const std::string& reference_payload,
                      int64_t watchdog_ms, bool& failed) {
  Header("Crash-resume sweep at --jobs=" + std::to_string(jobs) +
         ": SIGKILL / hard hang / soft failure on every first attempt");
  std::string dir = MakeCheckpointDir();
  SweepConfig cfg;
  cfg.jobs = jobs;
  cfg.max_attempts = 3;
  cfg.shard_deadline_ms = watchdog_ms;
  cfg.backoff_initial_ms = 1;
  cfg.base_seed = 7;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every_ms = kCheckpointEveryMs;
  SweepReport rep =
      RunSweep(cfg, kShards, [](const ShardContext& ctx) { return ShardBody(ctx, true); });
  std::cout << rep.Merged();
  RemoveCheckpointDir(dir);

  Check("all shards clean after resume", rep.ok() && rep.clean == kShards, failed);
  Check("every injected shard recovered", rep.recovered == 4, failed);
  Check("every recovery resumed from a checkpoint (not t=0)", rep.resumed == 4, failed);
  Check("merged payload byte-identical to uninterrupted fault-free run",
        PayloadOf(rep) == reference_payload, failed);
  bool cheap = true;
  for (int i = 0; i < kShards; ++i) {
    const sweep::ShardOutcome& out = rep.shards[static_cast<size_t>(i)];
    if (ModeOf(i) == Mode::kClean) {
      cheap = cheap && !out.resumed;
      continue;
    }
    // The failure struck at kFailBoundary with a checkpoint persisted one
    // interval earlier: re-simulated virtual time must stay under 10% of the
    // horizon.
    cheap = cheap && out.resumed && out.resume_point_ns > 0 &&
            (kFailBoundary - out.resume_point_ns) * 10 < kHorizon;
  }
  Check("re-simulated virtual time after last checkpoint < 10% of horizon", cheap,
        failed);
}

void ReplayVerifyPinpoint(bool& failed) {
  Header("Divergence auditor: a twin perturbed by one RNG draw after interval 3");
  const TimeNs interval = Ms(50);
  const int intervals = 8;
  std::vector<IntervalDigest> expected;
  std::vector<IntervalDigest> actual;
  for (int pass = 0; pass < 2; ++pass) {
    CkptScenarioOptions opt;
    opt.seed = 7;
    opt.horizon = interval * intervals;
    auto s = BuildCkptScenario(opt);
    s->Start();
    std::vector<IntervalDigest>& trail = pass == 0 ? expected : actual;
    for (int i = 0; i < intervals; ++i) {
      TimeNs boundary = interval * (i + 1);
      s->exp->Run(boundary);
      ckpt::Image image;
      std::string err = s->exp->SaveCheckpoint(&image);
      if (!err.empty()) {
        std::cerr << err << "\n";
        failed = true;
        return;
      }
      trail.push_back(IntervalDigest{i, boundary, ckpt::DigestOf(image)});
      if (pass == 1 && i == 3) {
        s->exp->rng().UniformInt(0, 1);  // The deliberate fork.
      }
    }
  }
  DivergenceReport report = CompareTrails(expected, actual);
  std::cout << report.summary;
  Check("auditor flags the perturbed twin", report.diverged, failed);
  Check("first divergent interval is 4 (first boundary after the fork)",
        report.interval == 4, failed);
  Check("forked component list is exactly {rng}",
        report.forked == std::vector<std::string>{"rng"}, failed);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int64_t watchdog_ms = 4000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!WholeFlag("checkpoint_resilience", arg, "--watchdog-ms", 1, &watchdog_ms)) {
      std::cerr << "usage: checkpoint_resilience [--smoke] [--watchdog-ms=N]\n";
      return 1;
    }
  }
  bool failed = false;

  // The uninterrupted fault-free reference: same seeds, no injection, no
  // checkpointing. Its per-shard payloads are the byte-identity target.
  Header("Reference: uninterrupted fault-free sweep of the same seeds");
  SweepConfig ref_cfg;
  ref_cfg.jobs = 4;
  ref_cfg.max_attempts = 1;
  ref_cfg.base_seed = 7;
  SweepReport ref = RunSweep(ref_cfg, kShards,
                             [](const ShardContext& ctx) { return ShardBody(ctx, false); });
  std::cout << ref.Merged();
  std::string reference_payload = PayloadOf(ref);
  std::cout << reference_payload;
  Check("reference sweep clean", ref.ok() && ref.resumed == 0, failed);

  if (smoke) {
    CrashResumeSweep(4, reference_payload, watchdog_ms, failed);
  } else {
    for (int jobs : {1, 4, 8}) {
      CrashResumeSweep(jobs, reference_payload, watchdog_ms, failed);
    }
    ReplayVerifyPinpoint(failed);
  }

  std::cout << "\n" << (failed ? "FAILED" : "OK") << "\n";
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace rtvirt::bench

int main(int argc, char** argv) { return rtvirt::bench::Main(argc, argv); }
