// rtvirt_runner: CLI front-end for the checkpoint/restore + divergence
// auditing machinery (DESIGN.md §10) over the canonical checkpoint scenario
// (src/runner/ckpt_scenario.h).
//
//   rtvirt_runner [--seed=N] [--horizon-ms=N] [--interval-ms=N] [--no-faults]
//                 [--record-digests=FILE]   write the digest trail to FILE
//                 [--replay-verify[=FILE]]  lock-step verify (live twin, or
//                                           against a recorded trail file)
//                 [--perturb=K]             deliberately fork the verified
//                                           instance at interval K (one extra
//                                           RNG draw) — auditor demo/test
//                 [--checkpoint=FILE --checkpoint-at-ms=N]
//                                           save a checkpoint at virtual N ms
//                                           (an interval boundary past any
//                                           resume point), then keep running
//                 [--resume=FILE]           restore FILE instead of starting
//                                           at t=0, then run to the horizon
//
// Exit codes: 0 success / no divergence; 1 usage or I/O or checkpoint error;
// 2 divergence detected (the report pinpoints the first forked interval and
// the component-level digests that broke).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/ckpt_scenario.h"

namespace rtvirt {
namespace {

struct RunnerArgs {
  uint64_t seed = 42;
  int64_t horizon_ms = 1000;
  int64_t interval_ms = 50;
  bool faults = true;
  std::string record_digests;
  bool replay_verify = false;
  std::string replay_trail;  // Optional recorded-trail file.
  int perturb = -1;          // Interval to fork at; -1 = none.
  std::string checkpoint_path;
  std::optional<int64_t> checkpoint_at_ms;
  std::string resume_path;
};

bool ParseArg(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

// Matches `name=N`; a value that is not a whole decimal integer sets *bad.
bool ParseArg(const std::string& arg, const char* name, int64_t* out, bool* bad) {
  std::string value;
  if (!ParseArg(arg, name, &value)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno != 0) {
    std::cerr << name << " needs a whole number, got '" << value << "'\n";
    *bad = true;
  }
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed=N] [--horizon-ms=N] [--interval-ms=N] [--no-faults]\n"
               "  [--record-digests=FILE] [--replay-verify[=FILE]] [--perturb=K]\n"
               "  [--checkpoint=FILE --checkpoint-at-ms=N] [--resume=FILE]\n";
  return 1;
}

CkptScenarioOptions OptionsFor(const RunnerArgs& args) {
  CkptScenarioOptions opt;
  opt.seed = args.seed;
  opt.horizon = Ms(args.horizon_ms);
  opt.faults = args.faults;
  return opt;
}

// Runs one instance boundary-by-boundary, recording its trail; perturbs it
// with one extra RNG draw right after interval `perturb`'s boundary.
std::string RunTrail(const RunnerArgs& args, int perturb,
                     std::vector<IntervalDigest>* trail) {
  auto s = BuildCkptScenario(OptionsFor(args));
  s->Start();
  int intervals = static_cast<int>(args.horizon_ms / args.interval_ms);
  for (int i = 0; i < intervals; ++i) {
    TimeNs boundary = Ms(args.interval_ms) * (i + 1);
    s->exp->Run(boundary);
    ckpt::Image image;
    std::string err = s->exp->SaveCheckpoint(&image);
    if (!err.empty()) {
      return "interval " + std::to_string(i) + ": " + err;
    }
    trail->push_back(IntervalDigest{i, boundary, ckpt::DigestOf(image)});
    if (i == perturb) {
      s->exp->rng().UniformInt(0, 1);  // The deliberate fork: one stolen draw.
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  RunnerArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int64_t n = 0;
    bool bad = false;
    if (ParseArg(arg, "--seed", &n, &bad)) {
      args.seed = static_cast<uint64_t>(n);
    } else if (ParseArg(arg, "--checkpoint-at-ms", &n, &bad)) {
      args.checkpoint_at_ms = n;
    } else if (ParseArg(arg, "--horizon-ms", &args.horizon_ms, &bad) ||
               ParseArg(arg, "--interval-ms", &args.interval_ms, &bad) ||
               ParseArg(arg, "--record-digests", &args.record_digests) ||
               ParseArg(arg, "--checkpoint", &args.checkpoint_path) ||
               ParseArg(arg, "--resume", &args.resume_path)) {
    } else if (arg == "--no-faults") {
      args.faults = false;
    } else if (arg == "--replay-verify") {
      args.replay_verify = true;
    } else if (ParseArg(arg, "--replay-verify", &args.replay_trail)) {
      args.replay_verify = true;
    } else if (ParseArg(arg, "--perturb", &n, &bad)) {
      args.perturb = static_cast<int>(n);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage(argv[0]);
    }
    if (bad) {
      return 1;
    }
  }
  if (args.horizon_ms <= 0 || args.interval_ms <= 0 ||
      args.horizon_ms % args.interval_ms != 0) {
    std::cerr << "horizon-ms must be a positive multiple of interval-ms\n";
    return 1;
  }
  // A checkpoint is saved only at an interval boundary of a plain run.
  if (args.checkpoint_path.empty() != !args.checkpoint_at_ms.has_value()) {
    std::cerr << "--checkpoint=FILE and --checkpoint-at-ms=N go together\n";
    return 1;
  }
  if (args.checkpoint_at_ms.has_value()) {
    const int64_t at = *args.checkpoint_at_ms;
    if (at <= 0 || at % args.interval_ms != 0 || at > args.horizon_ms) {
      std::cerr << "--checkpoint-at-ms=" << at << " must be a positive multiple of --interval-ms="
                << args.interval_ms << " no later than --horizon-ms=" << args.horizon_ms << "\n";
      return 1;
    }
    if (args.replay_verify) {
      std::cerr << "--checkpoint does not combine with --replay-verify\n";
      return 1;
    }
  }

  if (args.replay_verify) {
    std::vector<IntervalDigest> expected;
    if (!args.replay_trail.empty()) {
      std::string text;
      if (!ckpt::ReadFileToString(args.replay_trail, &text)) {
        std::cerr << "cannot read trail file " << args.replay_trail << "\n";
        return 1;
      }
      std::string err = ParseTrail(text, &expected);
      if (!err.empty()) {
        std::cerr << err << "\n";
        return 1;
      }
    } else {
      // Live twin: an unperturbed lock-step reference instance.
      std::string err = RunTrail(args, -1, &expected);
      if (!err.empty()) {
        std::cerr << err << "\n";
        return 1;
      }
    }
    std::vector<IntervalDigest> actual;
    std::string err = RunTrail(args, args.perturb, &actual);
    if (!err.empty()) {
      std::cerr << err << "\n";
      return 1;
    }
    DivergenceReport report = CompareTrails(expected, actual);
    std::cout << report.summary;
    return report.diverged ? 2 : 0;
  }

  if (args.perturb >= 0) {
    std::cerr << "--perturb only makes sense with --replay-verify\n";
    return 1;
  }

  // Plain run (optionally recording digests, saving a checkpoint mid-run, or
  // resuming from one).
  auto s = BuildCkptScenario(OptionsFor(args));
  TimeNs start_t = 0;
  if (!args.resume_path.empty()) {
    std::string bytes;
    if (!ckpt::ReadFileToString(args.resume_path, &bytes)) {
      std::cerr << "cannot read checkpoint " << args.resume_path << "\n";
      return 1;
    }
    ckpt::Image image;
    std::string err = ckpt::Image::Parse(bytes, &image);
    if (err.empty()) {
      err = s->exp->RestoreCheckpoint(image);
    }
    if (!err.empty()) {
      std::cerr << err << "\n";
      return 1;
    }
    start_t = s->exp->sim().Now();
    if (args.checkpoint_at_ms.has_value() && Ms(*args.checkpoint_at_ms) <= start_t) {
      std::cerr << "--checkpoint-at-ms=" << *args.checkpoint_at_ms
                << " is not past the resume point t=" << start_t << "ns\n";
      return 1;
    }
    std::cout << "resumed from " << args.resume_path << " at t=" << start_t << "ns\n";
  } else {
    s->Start();
  }
  std::vector<IntervalDigest> trail;
  int intervals = static_cast<int>(args.horizon_ms / args.interval_ms);
  for (int i = 0; i < intervals; ++i) {
    TimeNs boundary = Ms(args.interval_ms) * (i + 1);
    if (boundary <= start_t) {
      continue;  // Already simulated before the resume point.
    }
    s->exp->Run(boundary);
    ckpt::Image image;
    std::string err = s->exp->SaveCheckpoint(&image);
    if (!err.empty()) {
      std::cerr << "interval " << i << ": " << err << "\n";
      return 1;
    }
    if (!args.record_digests.empty()) {
      trail.push_back(IntervalDigest{i, boundary, ckpt::DigestOf(image)});
    }
    if (args.checkpoint_at_ms.has_value() && boundary == Ms(*args.checkpoint_at_ms)) {
      err = ckpt::WriteFileAtomic(args.checkpoint_path, image.Serialize());
      if (!err.empty()) {
        std::cerr << err << "\n";
        return 1;
      }
      std::cout << "checkpoint written to " << args.checkpoint_path << " at t=" << boundary
                << "ns\n";
    }
  }
  if (!args.record_digests.empty()) {
    std::string err = ckpt::WriteFileAtomic(args.record_digests, TrailToText(trail));
    if (!err.empty()) {
      std::cerr << err << "\n";
      return 1;
    }
    std::cout << "recorded " << trail.size() << " interval digests to "
              << args.record_digests << "\n";
  }
  std::cout << "completed=" << s->monitor.total_completed()
            << " misses=" << s->monitor.total_misses() << " t=" << s->exp->sim().Now()
            << "ns\n";
  return 0;
}

}  // namespace
}  // namespace rtvirt

int main(int argc, char** argv) { return rtvirt::Main(argc, argv); }
