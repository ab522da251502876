// Cluster federation fail/heal evaluation (host-level fault tolerance PR):
// four 4-core hosts, each initially packing one HIGH-criticality inelastic
// VM (1.5 CPUs) and one LOW elastic VM (1.5 CPUs, compressible to 0.75),
// ride the same deterministic host fault timeline:
//
//   t =  1.0 s   host 3 throttled to 0.65x          (capacity degradation)
//   t =  3.0 s   host 3 back to full speed
//   t =  4.0 s   host 0 crashes, permanently        (evacuate hi0 + lo0)
//   t =  6.5 s   host 2 goes dark                   (races lo0's in-flight
//   t = 11.5 s   host 2 heals                        copy: abort + re-route)
//
// Three responses to the identical hardware timeline:
//
//   hardened - full stack: federation evacuation with retry/backoff and
//              deadline-aware degraded-fit placement, per-host DP-WRAP
//              capacity replans, host pressure + guest compress/shed ladder,
//              invariant auditor armed on every host;
//   noretry  - evacuation fires but the attempt budget is 1 and degraded
//              fit never kicks in: a full cluster means the evacuation is
//              abandoned (unresolved), demonstrating why retry + degrade
//              matter;
//   frozen   - host faults hit the machines, nobody responds.
//
// Acceptance: hardened HIGH misses nothing across the whole timeline with
// zero auditor violations while frozen demonstrably misses; the hardened
// path must exercise evacuation, backoff retries, a migration abort (the
// outage races lo0's copy) and degraded placements.
//
// Soak extension: --seeds=N (default 0) additionally runs N randomized
// host-fault plans on a 3-host cluster, each twice, asserting zero auditor
// violations, no abandoned evacuations, every VM home by the end, and a
// byte-identical report between the paired runs (weekly CI matrix). Seeds
// run as supervised sweep shards: --jobs=N (default 1) fans them out, and a
// crashed seed becomes a recorded FAIL line instead of ending the run. Both
// flags take whole numbers (seeds >= 0, jobs >= 1); anything else exits 2.

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/federation.h"
#include "src/common/rng.h"
#include "src/metrics/resilience.h"
#include "src/sweep/sweep.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRunLength = Sec(20);
constexpr int kHosts = 4;
constexpr int kPcpusPerHost = 4;
constexpr int kTasksPerVm = 6;
constexpr TimeNs kRetry = Ms(50);

constexpr TimeNs kDegradeAt = Sec(1);
constexpr TimeNs kDegradeHealAt = Sec(3);
constexpr double kDegradeFactor = 0.65;
// Off the 10 ms period grid, so the host dies mid-grant.
constexpr TimeNs kCrashAt = Sec(4) + Us(1700);
constexpr TimeNs kOutageAt = Sec(6) + Ms(500);
constexpr TimeNs kOutageHealAt = Sec(11) + Ms(500);

enum class Mode { kHardened, kNoRetry, kFrozen };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kHardened:
      return "hardened";
    case Mode::kNoRetry:
      return "noretry";
    case Mode::kFrozen:
      return "frozen";
  }
  return "?";
}

// Whole-VM pre-copy live migration across the cluster interconnect.
MigrationCostModel VmMigration() {
  MigrationCostModel m;
  m.memory_gb = 2.0;
  m.dirty_rate_gbps = 1.0;
  m.link_gbps = 10.0;
  m.downtime_target_gb = 0.05;
  return m;
}

// HIGH tier: 6 x 0.25 CPU inelastic = 1.5 CPUs per VM. LOW tier: same shape
// but elastic to half (floor 0.75 CPUs per VM). Utilizations never pack a
// VCPU anywhere near 1.0, leaving the channel's budget slack room to drain
// the transient backlogs every landing causes.
RtaParams HiProfile() {
  RtaParams p{Us(2500), Ms(10)};
  p.criticality = Criticality::kHigh;
  return p;
}

RtaParams LoProfile() {
  RtaParams p{Us(2500), Ms(10)};
  p.criticality = Criticality::kLow;
  p.min_slice = Us(1250);
  return p;
}

ClusterVmSpec VmSpec(const std::string& name, const RtaParams& profile, bool overload) {
  ClusterVmSpec spec;
  spec.name = name;
  spec.vcpus = kTasksPerVm;
  spec.bandwidth = Bandwidth::FromPpb(profile.bandwidth().ppb() * kTasksPerVm);
  spec.min_bandwidth = Bandwidth::FromPpb(profile.min_bandwidth().ppb() * kTasksPerVm);
  spec.migration = VmMigration();
  spec.guest.overload.enabled = overload;
  return spec;
}

struct TierResult {
  uint64_t ontime = 0;
  uint64_t missed = 0;
};

struct TimelineResult {
  TierResult hi, lo;
  ResilienceCounters rc;
  bool lost_any = false;
};

// Re-creates a landed VM's RTAs; called at admission (generation 0) and
// after every migration landing. Old-generation RTAs die with their crashed
// VM (releases into a crashed VM are dropped), so the shared per-tier
// monitors only ever hear from live instances.
struct Workloads {
  DeadlineMonitor hi_mon, lo_mon;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;

  void Launch(Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec, int generation) {
    bool high = spec.name[0] == 'h';
    RtaParams profile = high ? HiProfile() : LoProfile();
    TimeNs now = exp.sim().Now();
    // Cap per-VCPU packing at 0.5: a VCPU is one serial thread of execution,
    // so a VCPU packed near 1.0 (a) clips the channel's budget slack, losing
    // the headroom that drains transient backlogs into permanent tardiness,
    // and (b) becomes physically unservable the moment a host-level degrade
    // throttles every core below its bandwidth.
    for (int i = 0; i < spec.vcpus; ++i) {
      guest->SetVcpuCapacity(i, Bandwidth::FromDouble(0.5));
    }
    for (int i = 0; i < spec.vcpus; ++i) {
      TimeNs begin = now + Ms(1) * i;  // Staggered off the registration burst.
      if (begin >= kRunLength) {
        continue;
      }
      auto rta = std::make_unique<PeriodicRta>(
          guest, spec.name + ".g" + std::to_string(generation) + "." + std::to_string(i),
          profile);
      rta->set_admission_retry(kRetry);
      // Reserve WCET, run 500 us under it: per-period laxity so a task that
      // fell behind during a fault window catches back up instead of
      // completing every subsequent job exactly one backlog late.
      rta->set_job_work(profile.slice - Us(500));
      (high ? hi_mon : lo_mon).Watch(rta->task());
      rta->Start(begin, kRunLength);
      rtas.push_back(std::move(rta));
    }
  }
};

FaultPlan::HostFault Crash(int host, TimeNs at) {
  FaultPlan::HostFault f;
  f.kind = FaultPlan::HostFault::Kind::kCrash;
  f.host = host;
  f.at = at;
  return f;
}

FaultPlan::HostFault Outage(int host, TimeNs at, TimeNs until) {
  FaultPlan::HostFault f;
  f.kind = FaultPlan::HostFault::Kind::kOutage;
  f.host = host;
  f.at = at;
  f.until = until;
  return f;
}

FaultPlan::HostFault Degrade(int host, TimeNs at, TimeNs until, double factor) {
  FaultPlan::HostFault f;
  f.kind = FaultPlan::HostFault::Kind::kDegrade;
  f.host = host;
  f.at = at;
  f.until = until;
  f.factor = factor;
  return f;
}

TimelineResult RunTimeline(Mode mode) {
  FederationConfig fc;
  fc.num_hosts = kHosts;
  fc.pcpus_per_host = kPcpusPerHost;
  fc.policy = PlacementPolicy::kFirstFit;
  if (mode != Mode::kFrozen) {
    fc.fault_tolerance.enabled = true;
    fc.fault_tolerance.max_attempts = 12;
  }
  if (mode == Mode::kNoRetry) {
    fc.fault_tolerance.max_attempts = 1;
    fc.fault_tolerance.migration_deadline = kTimeNever;  // Degraded fit never arms.
  }

  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpusPerHost);
  bool hardened = mode == Mode::kHardened;
  if (hardened) {
    cfg.dpwrap.pcpu_recovery.enabled = true;
    cfg.dpwrap.overload.enabled = true;
    cfg.audit.enabled = true;
  }
  cfg.faults.host_faults.push_back(Degrade(3, kDegradeAt, kDegradeHealAt, kDegradeFactor));
  cfg.faults.host_faults.push_back(Crash(0, kCrashAt));
  cfg.faults.host_faults.push_back(Outage(2, kOutageAt, kOutageHealAt));

  Federation fed(fc, cfg);
  Workloads wl;
  fed.SetLauncher([&wl](Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec,
                        int /*host*/, int generation) {
    wl.Launch(exp, guest, spec, generation);
  });
  for (int h = 0; h < kHosts; ++h) {
    fed.AdmitVm(VmSpec("hi" + std::to_string(h), HiProfile(), hardened));
    fed.AdmitVm(VmSpec("lo" + std::to_string(h), LoProfile(), hardened));
  }
  fed.Run(kRunLength);

  TimelineResult r;
  r.hi.ontime = wl.hi_mon.total_completed() - wl.hi_mon.total_misses();
  r.hi.missed = wl.hi_mon.total_misses();
  r.lo.ontime = wl.lo_mon.total_completed() - wl.lo_mon.total_misses();
  r.lo.missed = wl.lo_mon.total_misses();
  r.rc = fed.resilience();
  for (int h = 0; h < kHosts; ++h) {
    if (fed.host(h).auditor() != nullptr) {
      for (const AuditViolation& v : fed.host(h).auditor()->violations()) {
        std::cout << "audit violation host " << h << " @" << v.time << " ns ["
                  << v.invariant << "] " << v.detail << "\n";
      }
    }
    if (fed.host(h).auditor() == nullptr && hardened) {
      std::cout << "missing auditor on host " << h << "\n";
    }
  }
  for (int h = 0; h < kHosts; ++h) {
    Federation::VmStatus hi = fed.vm_status("hi" + std::to_string(h));
    Federation::VmStatus lo = fed.vm_status("lo" + std::to_string(h));
    r.lost_any = r.lost_any || hi.lost || lo.lost;
  }
  if (hardened) {
    fed.PrintReport(std::cout, "cluster_resilience/hardened");
  }
  return r;
}

void ResilienceTimeline(bool& failed) {
  Header("Host crash/outage/heal timeline: federated evacuation + retry/backoff + "
         "graceful degradation vs frozen cluster");
  TablePrinter table({"config", "hi_ontime", "hi_missed", "lo_ontime", "lo_missed", "evac",
                      "retries", "aborts", "degraded", "unresolved", "dark_ms", "audit"});
  TimelineResult hardened, noretry, frozen;
  for (Mode mode : {Mode::kHardened, Mode::kNoRetry, Mode::kFrozen}) {
    TimelineResult r = RunTimeline(mode);
    table.AddRow({ModeName(mode), std::to_string(r.hi.ontime), std::to_string(r.hi.missed),
                  std::to_string(r.lo.ontime), std::to_string(r.lo.missed),
                  std::to_string(r.rc.evacuations), std::to_string(r.rc.migration_retries),
                  std::to_string(r.rc.migration_aborts),
                  std::to_string(r.rc.degraded_placements),
                  std::to_string(r.rc.evacuations_unresolved),
                  std::to_string(r.rc.vm_unavailable_ns / Ms(1)),
                  std::to_string(r.rc.audit_violations) + "/" +
                      std::to_string(r.rc.audit_checks)});
    switch (mode) {
      case Mode::kHardened:
        hardened = r;
        break;
      case Mode::kNoRetry:
        noretry = r;
        break;
      case Mode::kFrozen:
        frozen = r;
        break;
    }
  }
  table.Print(std::cout);

  bool hardened_ok = hardened.hi.missed == 0 && !hardened.lost_any &&
                     hardened.rc.evacuations > 0 && hardened.rc.migration_retries > 0 &&
                     hardened.rc.migration_aborts > 0 &&
                     hardened.rc.degraded_placements > 0 &&
                     hardened.rc.evacuations_unresolved == 0;
  bool audit_ok = hardened.rc.audit_checks > 0 && hardened.rc.audit_violations == 0;
  bool throughput_ok = hardened.hi.ontime > frozen.hi.ontime;
  bool noretry_shows = noretry.rc.evacuations_unresolved > 0;
  bool frozen_shows = frozen.hi.missed > 0;
  std::cout << "check: hardened hi missed=" << hardened.hi.missed
            << " evac=" << hardened.rc.evacuations
            << " retries=" << hardened.rc.migration_retries
            << " aborts=" << hardened.rc.migration_aborts
            << " degraded=" << hardened.rc.degraded_placements << " => "
            << (hardened_ok ? "PASS" : "FAIL")
            << " (every evacuee re-homed, HIGH missed nothing)\n";
  std::cout << "check: audit checks=" << hardened.rc.audit_checks
            << " violations=" << hardened.rc.audit_violations << " => "
            << (audit_ok ? "PASS" : "FAIL")
            << " (every surviving host's plan stayed within effective capacity)\n";
  std::cout << "check: hardened hi ontime=" << hardened.hi.ontime
            << " frozen hi ontime=" << frozen.hi.ontime << " => "
            << (throughput_ok ? "PASS" : "FAIL")
            << " (recovery preserved HIGH throughput the frozen cluster lost)\n";
  std::cout << "check: noretry unresolved=" << noretry.rc.evacuations_unresolved
            << " frozen hi missed=" << frozen.hi.missed << " => "
            << (noretry_shows && frozen_shows ? "PASS" : "FAIL")
            << " (single-attempt evacuation abandons VMs; frozen cluster misses)\n";
  failed = failed || !hardened_ok || !audit_ok || !throughput_ok || !noretry_shows ||
           !frozen_shows;
}

// ---- deterministic multi-seed soak ----

struct SoakOutcome {
  std::string report;  // Alloc-free resilience dump + per-tier miss counts.
  bool audit_clean = false;
  bool all_home = false;
  bool none_lost = false;
};

SoakOutcome RunSoak(uint64_t seed) {
  constexpr int kSoakHosts = 3;
  constexpr TimeNs kSoakLen = Sec(14);
  Rng rng(seed);

  FederationConfig fc;
  fc.num_hosts = kSoakHosts;
  fc.pcpus_per_host = kPcpusPerHost;
  fc.policy = PlacementPolicy::kWorstFit;
  fc.fault_tolerance.enabled = true;

  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpusPerHost);
  cfg.dpwrap.pcpu_recovery.enabled = true;
  cfg.dpwrap.overload.enabled = true;
  cfg.audit.enabled = true;
  cfg.seed = seed;
  // Host 0 stays clean (a guaranteed survivor); hosts 1..2 each draw one
  // random fault with every window closed by t=7s, leaving half the run for
  // the stragglers to land and re-inflate.
  for (int h = 1; h < kSoakHosts; ++h) {
    TimeNs at = rng.UniformTime(Sec(1), Sec(4));
    TimeNs len = rng.UniformTime(Ms(500), Sec(3));
    if (rng.Bernoulli(0.5)) {
      cfg.faults.host_faults.push_back(Outage(h, at, at + len));
    } else {
      cfg.faults.host_faults.push_back(
          Degrade(h, at, at + len, rng.Uniform(0.6, 0.9)));
    }
  }

  Federation fed(fc, cfg);
  Workloads wl;  // kRunLength > kSoakLen just means RTAs run the whole soak.
  fed.SetLauncher([&wl](Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec,
                        int /*host*/, int generation) {
    wl.Launch(exp, guest, spec, generation);
  });
  RtaParams hi = HiProfile();
  hi.slice = Us(2000);  // 0.2 x 6 = 1.2 CPUs per VM: room for double faults.
  RtaParams lo = LoProfile();
  lo.slice = Us(2000);
  lo.min_slice = Us(1000);
  for (int h = 0; h < kSoakHosts; ++h) {
    fed.AdmitVm(VmSpec("hi" + std::to_string(h), hi, true));
    fed.AdmitVm(VmSpec("lo" + std::to_string(h), lo, true));
  }
  fed.Run(kSoakLen);

  SoakOutcome out;
  ResilienceCounters rc = fed.resilience();
  out.audit_clean = rc.audit_checks > 0 && rc.audit_violations == 0;
  out.none_lost = rc.evacuations_unresolved == 0;
  out.all_home = true;
  for (int h = 0; h < kSoakHosts; ++h) {
    for (const char* tier : {"hi", "lo"}) {
      Federation::VmStatus s = fed.vm_status(tier + std::to_string(h));
      out.all_home = out.all_home && s.host >= 0 && !s.lost;
    }
  }
  // Byte-identical determinism evidence: the full counter dump, plus the
  // per-tier completion tallies and each host's event count.
  std::ostringstream os;
  PrintResilience(os, rc);
  os << "hi " << wl.hi_mon.total_completed() << "/" << wl.hi_mon.total_misses() << " lo "
     << wl.lo_mon.total_completed() << "/" << wl.lo_mon.total_misses() << "\n";
  for (int h = 0; h < kSoakHosts; ++h) {
    os << "host" << h << " events " << fed.host(h).sim().events_processed() << "\n";
  }
  out.report = os.str();
  return out;
}

// One soak shard = one seed run twice (in-shard byte-identity check). The
// shard report is empty on success and carries the FAIL diagnostics
// otherwise, so the merged output matches the historical serial format while
// the sweep runner (src/sweep) supplies crash/hang containment and --jobs
// parallelism.
void Soak(int seeds, int jobs, bool& failed) {
  Header("Cluster soak: randomized host fault plans, " + std::to_string(seeds) +
         " seeds, each run twice (determinism check)");
  sweep::SweepConfig sc;
  sc.jobs = jobs;
  sc.max_attempts = 2;
  sweep::SweepReport rep =
      sweep::RunSweep(sc, seeds, [](const sweep::ShardContext& ctx) {
        uint64_t seed = static_cast<uint64_t>(ctx.shard) + 1;
        SoakOutcome a = RunSoak(seed);
        SoakOutcome b = RunSoak(seed);
        bool deterministic = a.report == b.report;
        sweep::ShardResult out;
        if (deterministic && a.audit_clean && a.none_lost && a.all_home) {
          return out;
        }
        std::ostringstream os;
        os << "seed " << seed << ": FAIL (deterministic=" << deterministic
           << " audit_clean=" << a.audit_clean << " none_lost=" << a.none_lost
           << " all_home=" << a.all_home << ")\n";
        if (!deterministic) {
          os << "--- first run ---\n" << a.report << "--- second run ---\n" << b.report;
        }
        out.report = os.str();
        return out;
      });
  int clean = 0;
  for (int s = 0; s < seeds; ++s) {
    const sweep::ShardOutcome& o = rep.shards[static_cast<size_t>(s)];
    if (o.outcome == sweep::Outcome::kClean && o.report.empty()) {
      ++clean;
    } else if (o.outcome == sweep::Outcome::kClean) {
      std::cout << o.report;
    } else {
      std::cout << "seed " << (s + 1) << ": " << sweep::OutcomeName(o.outcome)
                << " (attempts=" << o.attempts << ": " << o.reason << ")\n";
    }
  }
  std::cout << "check: " << clean << "/" << seeds << " seeds clean => "
            << (clean == seeds ? "PASS" : "FAIL")
            << " (byte-identical reruns, zero violations, every VM re-homed)\n";
  failed = failed || clean != seeds;
}

}  // namespace
}  // namespace rtvirt::bench

int main(int argc, char** argv) {
  int seeds = 0;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!rtvirt::bench::WholeFlag("cluster_resilience", arg, "--seeds", 0, &seeds) &&
        !rtvirt::bench::WholeFlag("cluster_resilience", arg, "--jobs", 1, &jobs)) {
      std::cerr << "cluster_resilience: unknown flag " << arg << "\n";
      return 2;
    }
  }
  bool failed = false;
  rtvirt::bench::ResilienceTimeline(failed);
  if (seeds > 0) {
    rtvirt::bench::Soak(seeds, jobs, failed);
  }
  return failed ? 1 : 0;
}
