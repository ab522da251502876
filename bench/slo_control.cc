// Closed-loop SLO control over a flash crowd (robustness PR, DESIGN.md §9).
//
// One core, one memcached tenant against a bursty 60%-reservation hog — the
// operating point where DP-WRAP's work conservation stops hiding an
// under-sized reservation: within each 6 ms hog burst the tenant progresses
// at its *guaranteed* rate only, so a flash crowd blows the 1 ms p99.9 SLO
// unless somebody raises the reservation. Four provisioning policies face
// the same seeded open-loop trace (diurnal swing + 3x flash crowd):
//
//   controller  SloController steering the reservation over the guest
//               channel (hysteresis, anti-windup, demand-floored DEC,
//               rate limit, saturation handoff, fail-static freeze).
//   faulted     Same controller, but a per-VM channel outage covers the
//               post-flash reclaim — the DEC chain fails, the tenant
//               freezes at its last-good (raised) reservation, re-engages
//               after the outage heals, and finishes the reclaim.
//   frozen      The initial 58 us reservation, never adjusted: what the
//               flash does to a statically right-sized-for-the-average
//               tenant.
//   static      240 us from t=0: the overprovisioned ceiling the controller
//               reaches only while the flash needs it.
//
// Gates (per seed): the controller meets the SLO the frozen baseline
// drowns under (miss ratio < 1% vs > 5%); it reclaims the flash-time
// reservation afterwards (final slice well under the static ceiling, with
// DEC adjustments on record); it is never quarantined by guest_trust, never
// trips the invariant auditor, resolves every saturation handoff, and in
// the faulted mode freezes and re-engages instead of thrashing. The
// controller row is additionally computed twice and must be byte-identical
// (the whole loop is deterministic given the seed).
//
// Seeds fan out through the supervised sweep runner exactly like
// fault_soak: `--seeds=N --jobs=M` (whole numbers >= 1; anything else exits
// 2), crashed or hung seeds become recorded shard outcomes, and the merged
// table is byte-identical for any jobs count.

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/control/slo_controller.h"
#include "src/faults/fault_injector.h"
#include "src/metrics/resilience.h"
#include "src/sweep/sweep.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRun = Sec(6);
constexpr TimeNs kSlo = Ms(1);
constexpr TimeNs kBaseSlice = Us(58);
constexpr TimeNs kMaxSlice = Us(240);  // Host ceiling under the 0.65 hog.
constexpr TimeNs kFlashStart = Sec(2);
constexpr TimeNs kFlashEnd = Sec(4);

enum SeedStream : uint64_t { kArrivalStream = 0, kServiceStream = 1 };

enum class Mode { kController, kFaulted, kFrozen, kStatic };

ControlConfig Control() {
  ControlConfig c;
  c.enabled = true;
  // A flash crowd is an emergency: climb aggressively (50% steps, 10 ms
  // ticks, 8 adjustments per 100 ms). Still two orders of magnitude inside
  // the guest_trust budgets (2000 calls/s bucket, 32 INC/DEC flips/100 ms).
  c.decision_period = Ms(10);
  c.step_fraction = 0.5;
  c.max_adjust_per_window = 8;
  c.min_samples = 16;
  c.window.num_slots = 8;
  c.window.slot_width = Ms(50);
  return c;
}

struct ModeResult {
  uint64_t completed = 0;
  uint64_t misses = 0;
  double miss_ratio = 0.0;
  double p999_us = 0.0;
  TimeNs final_slice = 0;
  ControlStats ctl;
  uint64_t unresolved_saturations = 0;
  bool frozen_at_end = false;
  uint64_t quarantines = 0;
  uint64_t audit_violations = 0;
  uint64_t outage_failures = 0;
};

ModeResult RunMode(Mode mode, uint64_t seed) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, /*pcpus=*/1);
  cfg.seed = seed;
  cfg.channel.max_retries = 2;
  cfg.channel.degraded_fallback = true;
  cfg.audit.enabled = true;
  bool controlled = mode == Mode::kController || mode == Mode::kFaulted;
  if (controlled) {
    cfg.control = Control();
  }
  if (mode == Mode::kFaulted) {
    // The outage covers the post-flash reclaim window — the one stretch
    // where every seed is guaranteed to actuate (a diurnal tail spike can
    // complete the INC chain before the flash even starts, but the DEC
    // chain always runs once the flash ends and the demand EMA decays).
    // Fail-static must freeze the tenant at its last-good *raised*
    // reservation, so the outage costs reclaim latency, never the SLO.
    cfg.faults.control_faults.push_back(
        {FaultPlan::ControlFault::Kind::kChannelOutage, /*vm_index=*/0,
         kFlashEnd, kFlashEnd + Ms(700), Us(200)});
  }
  Experiment exp(std::move(cfg));
  GuestOs* tenant = exp.AddGuest("tenant", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);

  MemcachedConfig mc;
  mc.qps = 2000.0;
  mc.slo = kSlo;
  mc.slice = mode == Mode::kStatic ? kMaxSlice : kBaseSlice;
  mc.open_loop.enabled = true;
  mc.open_loop.diurnal_amplitude = 0.25;
  mc.open_loop.diurnal_period = Sec(5);
  // Flash peak ~= 2000 * 1.25 * 2.4 = 6000 qps (~0.29 CPU): saturating for
  // a 58 us reservation, comfortably servable at the 240 us host ceiling.
  mc.open_loop.phases.push_back({kFlashStart, kFlashEnd, 2.4});
  MemcachedServer server(tenant, "mc", mc, Rng(DeriveSeed(seed, kArrivalStream)));
  server.Start(0, kRun);

  RtaParams hp;
  hp.slice = Ms(6);
  hp.period = Ms(10);
  PeriodicRta hog_rta(hog, "hog", hp);
  hog_rta.Start(0, kRun);

  DeadlineMonitor mon;
  mon.Watch(server.task());
  if (controlled) {
    SloController::TenantOptions topts;
    topts.slo = kSlo;
    topts.max_slice = kMaxSlice;
    exp.controller()->Watch(tenant, server.task(), exp.ChannelOf(tenant), topts);
  }
  exp.Run(kRun);

  ModeResult r;
  r.completed = mon.total_completed();
  r.misses = mon.total_misses();
  r.miss_ratio = mon.TotalMissRatio();
  r.p999_us = mon.response_times_us().Percentile(99.9);
  r.final_slice = controlled ? exp.controller()->CurrentSlice(server.task())
                             : server.task()->params().slice;
  if (controlled) {
    r.ctl = exp.controller()->stats();
    r.unresolved_saturations = exp.controller()->unresolved_saturations();
    r.frozen_at_end = exp.controller()->Frozen(server.task());
  }
  r.quarantines = exp.dpwrap()->stats().quarantines;
  ResilienceCounters rc = exp.resilience();
  r.audit_violations = rc.audit_violations;
  r.outage_failures = rc.control_outage_failures;
  return r;
}

struct SeedVerdict {
  ModeResult ctl, faulted, frozen, overprov;
  bool ok = false;
  std::string why;
};

SeedVerdict JudgeSeed(uint64_t seed) {
  SeedVerdict v;
  v.ctl = RunMode(Mode::kController, seed);
  v.faulted = RunMode(Mode::kFaulted, seed);
  v.frozen = RunMode(Mode::kFrozen, seed);
  v.overprov = RunMode(Mode::kStatic, seed);

  auto fail = [&v](const std::string& why) { v.why = why; };
  if (v.ctl.miss_ratio >= 0.01) {
    fail("controller missed the SLO band");
  } else if (v.frozen.miss_ratio <= 0.05) {
    fail("frozen baseline not stressed (scenario bug)");
  } else if (v.overprov.miss_ratio >= 0.01) {
    fail("static overprovision missed (scenario bug)");
  } else if (v.ctl.ctl.control_inc_adjustments == 0 || v.ctl.ctl.control_dec_adjustments == 0) {
    fail("controller never both raised and reclaimed");
  } else if (v.ctl.final_slice >= kMaxSlice) {
    fail("controller failed to reclaim after the flash");
  } else if (v.ctl.unresolved_saturations > 0 || v.faulted.unresolved_saturations > 0) {
    fail("saturation handoff never resolved");
  } else if (v.ctl.frozen_at_end || v.faulted.frozen_at_end) {
    fail("controller still frozen at end of run");
  } else if (v.ctl.quarantines + v.faulted.quarantines + v.frozen.quarantines +
                 v.overprov.quarantines >
             0) {
    fail("controller-caused quarantine");
  } else if (v.ctl.audit_violations + v.faulted.audit_violations +
                 v.frozen.audit_violations + v.overprov.audit_violations >
             0) {
    fail("audit violations");
  } else if (v.faulted.outage_failures == 0 || v.faulted.ctl.control_freezes == 0) {
    fail("outage never starved the controller (scenario bug)");
  } else if (v.faulted.ctl.control_reengages == 0) {
    fail("controller never re-engaged after the outage");
  } else if (v.faulted.miss_ratio >= v.frozen.miss_ratio) {
    fail("fail-static did worse than never controlling");
  } else {
    v.ok = true;
  }
  return v;
}

std::string Cell(const ModeResult& r) {
  std::ostringstream os;
  os << TablePrinter::Pct(r.miss_ratio, 2) << " p999=" << TablePrinter::Fmt(r.p999_us, 0)
     << "us";
  return os.str();
}

// Shard wire format: one line of tab-separated table cells.
std::string RowFor(uint64_t seed, const SeedVerdict& v) {
  std::ostringstream os;
  os << seed << '\t' << Cell(v.ctl) << '\t' << Cell(v.faulted) << '\t'
     << Cell(v.frozen) << '\t' << Cell(v.overprov) << '\t'
     << v.ctl.ctl.control_inc_adjustments << '/' << v.ctl.ctl.control_dec_adjustments << '\t'
     << v.ctl.final_slice / 1000 << "us" << '\t' << v.faulted.ctl.control_freezes << '/'
     << v.faulted.ctl.control_reengages << '\t' << (v.ok ? "ok" : v.why);
  return os.str();
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> cells;
  size_t begin = 0;
  while (true) {
    size_t tab = line.find('\t', begin);
    cells.push_back(line.substr(begin, tab == std::string::npos ? tab : tab - begin));
    if (tab == std::string::npos) {
      break;
    }
    begin = tab + 1;
  }
  return cells;
}

struct Options {
  int seeds = 3;
  sweep::SweepConfig sweep;
};

Options Parse(int argc, char** argv) {
  Options opt;
  opt.sweep.jobs = 1;
  opt.sweep.max_attempts = 2;
  opt.sweep.backoff_initial_ms = 50;
  opt.sweep.backoff_cap_ms = 2000;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!WholeFlag("slo_control", arg, "--seeds", 1, &opt.seeds) &&
        !WholeFlag("slo_control", arg, "--jobs", 1, &opt.sweep.jobs)) {
      std::cerr << "slo_control: unknown flag " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

int Bench(const Options& opt) {
  Header("SLO control across a flash crowd: controller vs frozen vs static, " +
         std::to_string(opt.seeds) + " seeds");
  std::cerr << "slo_control: jobs=" << opt.sweep.jobs << "\n";

  sweep::SweepReport rep =
      sweep::RunSweep(opt.sweep, opt.seeds, [](const sweep::ShardContext& ctx) {
        uint64_t seed = static_cast<uint64_t>(ctx.shard) + 1;
        SeedVerdict v = JudgeSeed(seed);
        // Determinism gate: the controller run must be exactly repeatable.
        SeedVerdict v2;
        v2.ctl = RunMode(Mode::kController, seed);
        std::string row = RowFor(seed, v);
        if (v.ok && Cell(v.ctl) != Cell(v2.ctl)) {
          v.ok = false;
          v.why = "controller run not deterministic";
          row = RowFor(seed, v);
        }
        sweep::ShardResult out;
        out.report = row;
        return out;
      });

  TablePrinter table({"seed", "controller", "faulted", "frozen", "static",
                      "inc/dec", "final", "frz/re", "result"});
  int verdict_failures = 0;
  for (int s = 0; s < opt.seeds; ++s) {
    const sweep::ShardOutcome& o = rep.shards[static_cast<size_t>(s)];
    if (o.outcome == sweep::Outcome::kClean) {
      std::vector<std::string> cells = SplitTabs(o.report);
      if (cells.back() != "ok") {
        ++verdict_failures;
      }
      table.AddRow(cells);
    } else {
      table.AddRow({std::to_string(s + 1), "-", "-", "-", "-", "-", "-", "-",
                    std::string(sweep::OutcomeName(o.outcome))});
    }
  }
  table.Print(std::cout);
  std::cout << "sweep: clean=" << rep.clean << " unresolved=" << rep.unresolved
            << " retries=" << rep.retries << " timeouts=" << rep.timeouts
            << " crashes=" << rep.crashes << "\n";

  int failures = verdict_failures + rep.unresolved;
  std::cout << "check: " << (opt.seeds - failures) << "/" << opt.seeds
            << " seeds clean => " << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rtvirt::bench

int main(int argc, char** argv) {
  return rtvirt::bench::Bench(rtvirt::bench::Parse(argc, argv));
}
