// Randomized multi-seed PCPU-fault soak (robustness PR, CI weekly job).
//
// Each seed derives a fresh random fault plan — transient core outages,
// frequency throttles, the occasional permanent failure, and an adversarial-
// guest campaign (deadline lies, a hypercall storm, and bandwidth thrash from
// a dedicated byzantine VM), laid out non-overlapping per core so
// FaultPlan::Validate accepts it — and drives a churned two-tier workload
// through it with the full recovery stack enabled (pcpu_recovery + overload
// renegotiation + guest_trust boundary + invariant auditor). Independent
// streams (plan vs per-tier churn) are decorrelated via DeriveSeed.
//
// Seeds run as shards of the supervised sweep runner (src/sweep): `--jobs=N`
// runs up to N seeds at once, each in its own forked child, a crashed or
// hung seed becomes a recorded per-shard outcome (`clean` /
// `failed(reason)` / `timeout` / `exhausted`) instead of killing the soak
// and losing every other seed's row, and the merged table is assembled in
// seed order — byte-identical for any jobs count. The process exits nonzero
// if any seed ends with audit violations, an isolation-invariant violation,
// an unarmed auditor, a fault/attack path that never fired, or an
// unresolved (crashed/hung past its attempt budget) shard. Under ASan/UBSan
// (the CI configuration) this doubles as a memory/UB sweep over the whole
// evacuation/re-plan/renegotiation/quarantine machinery.
//
// Flags, each a whole number (anything else exits 2): --seeds=N (>= 1),
// --jobs=N (>= 1), --watchdog-ms=N (>= 0; a seed still running after N ms
// is SIGKILLed and retried, 0 = no watchdog), --attempts=N (>= 1).

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/control/slo_controller.h"
#include "src/metrics/resilience.h"
#include "src/sweep/sweep.h"
#include "src/workloads/churn.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRun = Sec(6);
constexpr int kPcpus = 4;

// Per-seed stream indices for DeriveSeed: the fault plan and the two churn
// drivers draw from decorrelated engines by construction.
enum SeedStream : uint64_t {
  kPlanStream = 0,
  kHiChurnStream = 1,
  kLoChurnStream = 2,
  kSvcStream = 3,
};

// A random but always-valid plan: per core, an ordered walk of the run
// leaves every generated window disjoint from its predecessors by
// construction. Core 0 is never faulted so the machine always retains
// capacity to renegotiate over.
FaultPlan RandomPlan(uint64_t seed) {
  Rng rng(DeriveSeed(seed, kPlanStream));
  FaultPlan plan;
  plan.seed = seed;
  for (int core = 1; core < kPcpus; ++core) {
    TimeNs cursor = rng.UniformTime(Ms(200), Sec(1));
    while (cursor < kRun - Sec(1)) {
      FaultPlan::PcpuFault f;
      f.pcpu = core;
      f.at = cursor;
      double roll = rng.Uniform(0.0, 1.0);
      if (roll < 0.1) {
        f.kind = FaultPlan::PcpuFault::Kind::kPermanentFailure;
        plan.pcpu_faults.push_back(f);
        break;  // Nothing may follow a permanent failure on this core.
      }
      TimeNs len = rng.UniformTime(Ms(300), Sec(2));
      f.until = std::min(cursor + len, kRun + Sec(1));
      if (roll < 0.5) {
        f.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
      } else {
        f.kind = FaultPlan::PcpuFault::Kind::kDegrade;
        f.speed = rng.Uniform(0.3, 0.9);
      }
      plan.pcpu_faults.push_back(f);
      cursor = f.until + rng.UniformTime(Ms(200), Sec(1));
    }
  }
  // One byzantine-VM campaign per seed: all three adversarial kinds share a
  // random window that ends well before the run does, so the trust boundary
  // gets to quarantine *and* rehabilitate under concurrent PCPU faults. VM
  // index 2 is the dedicated adversary added by SoakOne.
  TimeNs atk_start = rng.UniformTime(Ms(500), Sec(2));
  TimeNs atk_end = std::min<TimeNs>(atk_start + rng.UniformTime(Sec(1), Sec(2)),
                                    kRun - Sec(1));
  for (auto kind : {FaultPlan::AdversarialGuest::Kind::kDeadlineLies,
                    FaultPlan::AdversarialGuest::Kind::kHypercallStorm,
                    FaultPlan::AdversarialGuest::Kind::kBandwidthThrash}) {
    FaultPlan::AdversarialGuest a;
    a.kind = kind;
    a.vm_index = 2;
    a.start = atk_start;
    a.end = atk_end;
    a.period = kind == FaultPlan::AdversarialGuest::Kind::kHypercallStorm ? Us(100)
               : kind == FaultPlan::AdversarialGuest::Kind::kDeadlineLies ? Us(200)
                                                                          : Us(500);
    a.thrash_high = Bandwidth::FromDouble(0.15);
    plan.adversarial_guests.push_back(a);
  }
  return plan;
}

struct SoakResult {
  ResilienceCounters rc;
  size_t planned_faults = 0;
  bool svc_quarantined = false;  // Controller tenant quarantined at run end.
  bool ok = false;
  std::string why;
  std::string notes;  // Audit-violation details for a failing seed.
};

SoakResult SoakOne(uint64_t seed) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpus);
  cfg.seed = seed;
  cfg.dpwrap.pcpu_recovery.enabled = true;
  cfg.dpwrap.overload.enabled = true;
  cfg.dpwrap.guest_trust.enabled = true;
  cfg.audit.enabled = true;
  cfg.machine.evacuation_penalty = Us(150);
  cfg.faults = RandomPlan(seed);
  // The SLO controller steers a service VM through the same storm: its
  // hypercall traffic runs under the full trust boundary while cores fail
  // and the byzantine VM attacks, and a well-behaved controller must come
  // out the other side unquarantined.
  cfg.control.enabled = true;
  cfg.control.decision_period = Ms(20);
  cfg.control.min_samples = 16;
  cfg.control.window.num_slots = 8;
  cfg.control.window.slot_width = Ms(50);

  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* hi = exp.AddGuest("hi", 6, gcfg);
  GuestOs* lo = exp.AddGuest("lo", 4, gcfg);
  // VM 2: the byzantine guest the adversarial plan entries target. A small
  // legitimate RTA keeps a host-read deadline slot alive for the lies to
  // land in; the last VCPU stays channel-unmanaged for the thrash campaign.
  GuestOs* adv = exp.AddGuest("adv", 2);
  PeriodicRta cover(adv, "cover", RtaParams{Ms(1), Ms(10)});
  cover.Start(0, kRun);
  // VM 3: the controller-steered service tenant. A seeded open-loop flash
  // crowd forces the controller to actually adjust mid-storm.
  GuestOs* svc = exp.AddGuest("svc", 1);
  Rng svc_rng(DeriveSeed(seed, kSvcStream));
  MemcachedConfig mc;
  mc.qps = 1500.0;
  mc.slo = Ms(1);
  mc.slice = Us(58);
  mc.open_loop.enabled = true;
  mc.open_loop.diurnal_amplitude = 0.2;
  TimeNs flash_at = svc_rng.UniformTime(Ms(500), kRun - Sec(2));
  mc.open_loop.phases.push_back({flash_at, flash_at + Sec(1), 3.0});
  MemcachedServer svc_server(svc, "svc-mc", mc,
                             Rng(DeriveSeed(seed, kSvcStream) + 1));
  svc_server.Start(0, kRun);
  SloController::TenantOptions svc_opts;
  svc_opts.slo = Ms(1);
  svc_opts.max_slice = Us(240);
  exp.controller()->Watch(svc, svc_server.task(), exp.ChannelOf(svc), svc_opts);

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
  ChurnDriver hi_churn(hi, hi_cfg, Rng(DeriveSeed(seed, kHiChurnStream)), &hi_mon);
  ChurnDriver lo_churn(lo, lo_cfg, Rng(DeriveSeed(seed, kLoChurnStream)), &lo_mon);
  hi_churn.Start();
  lo_churn.Start();
  exp.Run(kRun);

  SoakResult r;
  r.rc = exp.resilience();
  r.planned_faults = cfg.faults.pcpu_faults.size();
  r.svc_quarantined = exp.dpwrap()->Quarantined(svc->vm());
  if (exp.auditor() == nullptr || r.rc.audit_checks == 0) {
    r.why = "auditor never ran";
  } else if (r.rc.isolation_violations > 0 || r.rc.audit_violations > 0) {
    r.why = r.rc.isolation_violations > 0 ? "isolation invariant violated"
                                          : "audit violations";
    std::ostringstream notes;
    for (const AuditViolation& v : exp.auditor()->violations()) {
      notes << "  seed " << seed << " violation @" << v.time << " ns [" << v.invariant
            << "] " << v.detail << "\n";
    }
    r.notes = notes.str();
  } else if (r.planned_faults > 0 &&
             r.rc.pcpu_offline_events + r.rc.pcpu_degrade_events == 0) {
    r.why = "planned faults never fired";
  } else if (!cfg.faults.adversarial_guests.empty() &&
             r.rc.adversarial_deadline_lies + r.rc.adversarial_storm_calls +
                     r.rc.adversarial_thrash_calls == 0) {
    r.why = "adversarial campaign never fired";
  } else if (!cfg.faults.adversarial_guests.empty() &&
             (r.rc.quarantines == 0 || r.rc.quarantine_releases == 0)) {
    r.why = "byzantine VM not quarantined and rehabilitated";
  } else if (r.rc.control_decisions == 0) {
    r.why = "SLO controller never decided";
  } else if (r.svc_quarantined) {
    r.why = "controller tenant quarantined";
  } else {
    r.ok = true;
  }
  return r;
}

// Shard report wire format: line 1 = tab-separated table cells, remaining
// lines (if any) = verbatim per-seed notes printed after the table.
std::string RowFor(uint64_t seed, const SoakResult& r) {
  std::ostringstream os;
  os << seed << '\t' << r.planned_faults << '\t' << r.rc.pcpu_evacuations << '\t'
     << r.rc.capacity_replans << '\t' << r.rc.sheds << '\t' << r.rc.resumes << '\t'
     << r.rc.deadline_lie_rejections << '\t' << r.rc.hypercall_rate_rejections << '\t'
     << r.rc.quarantines << '/' << r.rc.quarantine_releases << '\t'
     << r.rc.control_inc_adjustments << '/' << r.rc.control_dec_adjustments << '\t'
     << r.rc.audit_violations << '/' << r.rc.audit_checks << '\t'
     << (r.ok ? "ok" : r.why);
  if (!r.notes.empty()) {
    os << '\n' << r.notes;
  }
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
  int seeds = 5;
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
    if (!WholeFlag("fault_soak", arg, "--seeds", 1, &opt.seeds) &&
        !WholeFlag("fault_soak", arg, "--jobs", 1, &opt.sweep.jobs) &&
        !WholeFlag("fault_soak", arg, "--watchdog-ms", 0, &opt.sweep.shard_deadline_ms) &&
        !WholeFlag("fault_soak", arg, "--attempts", 1, &opt.sweep.max_attempts)) {
      std::cerr << "fault_soak: unknown flag " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

int Soak(const Options& opt) {
  Header("Randomized PCPU-fault soak: recovery + audit across " +
         std::to_string(opt.seeds) + " seeds");
  // Execution diagnostics go to stderr: the stdout report stays
  // byte-identical across jobs counts.
  std::cerr << "fault_soak: jobs=" << opt.sweep.jobs
            << " attempts=" << opt.sweep.max_attempts
            << " watchdog_ms=" << opt.sweep.shard_deadline_ms << "\n";

  sweep::SweepReport rep =
      sweep::RunSweep(opt.sweep, opt.seeds, [](const sweep::ShardContext& ctx) {
        sweep::ShardResult out;
        out.report = RowFor(static_cast<uint64_t>(ctx.shard) + 1,
                            SoakOne(static_cast<uint64_t>(ctx.shard) + 1));
        return out;
      });

  TablePrinter table({"seed", "faults", "evac", "replans", "sheds", "resumes",
                      "lie_rej", "rate_rej", "quar", "ctl", "audit", "result"});
  std::string notes;
  int verdict_failures = 0;
  for (int s = 0; s < opt.seeds; ++s) {
    const sweep::ShardOutcome& o = rep.shards[static_cast<size_t>(s)];
    if (o.outcome == sweep::Outcome::kClean) {
      std::string first = o.report.substr(0, o.report.find('\n'));
      if (first.size() < o.report.size()) {
        notes += o.report.substr(first.size() + 1);
      }
      std::vector<std::string> cells = SplitTabs(first);
      if (cells.back() != "ok") {
        ++verdict_failures;
      }
      table.AddRow(cells);
    } else {
      // The shard never produced a row: its outcome line below says why.
      table.AddRow({std::to_string(s + 1), "-", "-", "-", "-", "-", "-", "-", "-", "-",
                    "-", std::string(sweep::OutcomeName(o.outcome))});
    }
  }
  table.Print(std::cout);
  if (!notes.empty()) {
    std::cout << notes;
  }

  // Per-shard execution outcome lines: CI logs show which seed died and why
  // (a seed that aborts mid-run no longer takes the soak's table with it).
  std::cout << "shard outcomes:\n";
  for (int s = 0; s < opt.seeds; ++s) {
    const sweep::ShardOutcome& o = rep.shards[static_cast<size_t>(s)];
    std::cout << "  seed " << (s + 1) << ": " << sweep::OutcomeName(o.outcome);
    if (o.outcome == sweep::Outcome::kClean) {
      if (o.recovered) {
        std::cout << " (recovered on attempt " << o.attempts
                  << "; last failure: " << o.reason << ")";
      }
    } else {
      std::cout << " (attempts=" << o.attempts << ": " << o.reason << ")";
    }
    std::cout << "\n";
  }
  std::cout << "sweep: clean=" << rep.clean << " recovered=" << rep.recovered
            << " unresolved=" << rep.unresolved << " retries=" << rep.retries
            << " timeouts=" << rep.timeouts << " check_failures=" << rep.check_failures
            << " crashes=" << rep.crashes << "\n";

  int failures = verdict_failures + rep.unresolved;
  std::cout << "check: " << (opt.seeds - failures) << "/" << opt.seeds
            << " seeds clean => " << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rtvirt::bench

int main(int argc, char** argv) {
  return rtvirt::bench::Soak(rtvirt::bench::Parse(argc, argv));
}
