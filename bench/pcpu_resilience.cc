// PCPU fault & capacity-degradation evaluation (robustness PR): a 4-core
// host loses core 3 mid-run, has core 2 frequency-throttled while the dead
// core is still out, then heals — and three recovery policies ride the same
// deterministic fault timeline:
//
//   t =  6 s  pcpu 3 goes offline (hotplug window)      effective cap 3.0
//   t = 10 s  pcpu 2 throttled to 0.6x                  effective cap 2.6
//   t = 14 s  pcpu 2 back to full speed                 effective cap 3.0
//   t = 18 s  pcpu 3 back online                        effective cap 4.0
//
// Demand: a HIGH-criticality inelastic tier (~1.8 CPUs, one RTA per VCPU)
// plus a LOW elastic tier (~1.8 CPUs, compressible to 0.9). At the trough
// the host can serve 2.6 CPUs, so HIGH fits only if the LOW tier gives way.
//
//   recover - full cross-layer path: DP-WRAP re-plans over surviving
//             effective capacity, evacuated VCPUs pay the migration-model
//             cost, the capacity drop raises host pressure and the guest
//             compress-then-shed ladder pushes LOW out of the way; the
//             invariant auditor watches the whole time;
//   replan  - host-only recovery: the layout tracks effective capacity (no
//             dead-core segments) but nobody renegotiates demand, so the
//             plan is squeezed proportionally below what HIGH needs;
//   frozen  - no protection: the plan still lays segments onto the dead
//             core (their VCPUs simply never run) and stretches consumed
//             time on the throttled core without compensation.
//
// Acceptance: with recovery enabled HIGH misses nothing across the whole
// failure/throttle/heal timeline and the auditor (which checks the plan
// against *effective*, not nominal, capacity) records zero violations;
// frozen demonstrably misses HIGH deadlines.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/migration_model.h"
#include "src/metrics/resilience.h"
#include "src/workloads/churn.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRunLength = Sec(24);
constexpr int kPcpus = 4;
constexpr int kHighTasks = 8;
constexpr int kLowTasks = 4;
constexpr TimeNs kRetry = Ms(50);

// Off the 10 ms period grid and the replan boundaries, so the dying core is
// mid-grant and the evacuation path (not just the layout change) is exercised.
constexpr TimeNs kCoreFailAt = Sec(6) + Us(1700);
constexpr TimeNs kCoreBackAt = Sec(18);
constexpr TimeNs kThrottleAt = Sec(10);
constexpr TimeNs kHealAt = Sec(14);

enum class Mode { kRecover, kReplan, kFrozen };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kRecover:
      return "recover";
    case Mode::kReplan:
      return "replan";
    case Mode::kFrozen:
      return "frozen";
  }
  return "?";
}

struct TierResult {
  int total = 0;
  int admitted = 0;
  uint64_t ontime = 0;  // Completions that met their deadline.
  uint64_t missed = 0;  // Completions past their deadline.
  double miss = 0.0;    // Miss ratio over completed jobs.
};

struct TimelineResult {
  TierResult hi, lo;
  ResilienceCounters rc;
};

// Intra-host VCPU evacuation moves a hot per-core working set, not a whole
// VM image; the stop-and-copy downtime of a small live migration is the
// model-derived price every evacuated VCPU pays on its next dispatch.
TimeNs EvacuationPenalty() {
  MigrationCostModel m;
  m.memory_gb = 0.002;        // ~2 MB of hot per-VCPU state.
  m.dirty_rate_gbps = 0.5;
  m.link_gbps = 50.0;         // Cross-core, not cross-host: memory-bus speed.
  m.downtime_target_gb = 0.002;
  return m.Predict().downtime;
}

// One criticality tier: a ChurnDriver whose every slot runs a single fixed
// profile episode for the whole run (staggered arrivals + the retry loop).
ChurnConfig Tier(TimeNs stagger, RtaParams profile, Criticality crit, double elastic_min) {
  ChurnConfig c;
  c.experiment_len = kRunLength;
  c.min_episode = kRunLength + Sec(10);  // Longer than the run: one episode
  c.max_episode = kRunLength + Sec(10);  // per slot, capped at the end.
  c.max_gap = stagger;
  c.idle_prob = 0.0;
  c.criticality = crit;
  c.elastic_min_fraction = elastic_min;
  c.profile = profile;
  c.admission_retry = kRetry;
  return c;
}

TierResult Summarize(const ChurnDriver& churn, const DeadlineMonitor& mon) {
  TierResult r;
  for (const auto& rta : churn.rtas()) {
    ++r.total;
    if (rta->admitted_at() != kTimeNever) {
      ++r.admitted;
    }
  }
  r.ontime = mon.total_completed() - mon.total_misses();
  r.missed = mon.total_misses();
  r.miss = mon.TotalMissRatio();
  return r;
}

TimelineResult RunTimeline(Mode mode) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpus);
  cfg.machine.evacuation_penalty = EvacuationPenalty();
  if (mode == Mode::kRecover || mode == Mode::kReplan) {
    cfg.dpwrap.pcpu_recovery.enabled = true;
  }
  if (mode == Mode::kRecover) {
    cfg.dpwrap.overload.enabled = true;
    cfg.audit.enabled = true;
  }
  GuestConfig gcfg;
  gcfg.overload.enabled = mode == Mode::kRecover;

  // The deterministic hardware timeline; identical in every mode.
  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  outage.pcpu = kPcpus - 1;
  outage.at = kCoreFailAt;
  outage.until = kCoreBackAt;
  cfg.faults.pcpu_faults.push_back(outage);
  FaultPlan::PcpuFault throttle;
  throttle.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  throttle.pcpu = kPcpus - 2;
  throttle.at = kThrottleAt;
  throttle.until = kHealAt;
  throttle.speed = 0.6;
  cfg.faults.pcpu_faults.push_back(throttle);

  Experiment exp(cfg);
  GuestOs* hi = exp.AddGuest("hi", kHighTasks, gcfg);
  GuestOs* lo = exp.AddGuest("lo", kLowTasks, gcfg);

  DeadlineMonitor hi_mon, lo_mon;
  // Utilizations deliberately never pack a VCPU to exactly 1.0 under any
  // compression/reshuffle combination (max packing 0.9): the channel's
  // budget slack needs surviving margin to drain transient backlogs, and an
  // exactly-full VCPU would clip it into permanent tardiness.
  RtaParams quarter{Us(2250), Ms(10)};  // 0.225 CPU x 8 = 1.8 CPUs, inelastic.
  RtaParams half{Us(4500), Ms(10)};     // 0.45 CPU x 4 = 1.8 CPUs, elastic to 0.9.
  ChurnDriver hi_churn(hi, Tier(Ms(200), quarter, Criticality::kHigh, 1.0), Rng(211),
                       &hi_mon);
  ChurnDriver lo_churn(lo, Tier(Ms(200), half, Criticality::kLow, 0.5), Rng(212), &lo_mon);
  hi_churn.Start();
  lo_churn.Start();
  exp.Run(kRunLength);

  TimelineResult r;
  r.hi = Summarize(hi_churn, hi_mon);
  r.lo = Summarize(lo_churn, lo_mon);
  r.rc = exp.resilience();
  if (exp.auditor() != nullptr) {
    for (const AuditViolation& v : exp.auditor()->violations()) {
      std::cout << "audit violation @" << v.time << " ns [" << v.invariant << "] "
                << v.detail << "\n";
    }
  }
  if (mode == Mode::kRecover) {
    exp.PrintReport(std::cout, "pcpu_resilience/recover");
  }
  return r;
}

std::string Adm(const TierResult& t) {
  return std::to_string(t.admitted) + "/" + std::to_string(t.total);
}

// Returns whether every check passed.
bool ResilienceTimeline() {
  Header("PCPU failure/throttle/heal timeline: cross-layer recovery vs "
         "host-only replan vs frozen layout");
  TablePrinter table({"config", "hi_adm", "hi_ontime", "hi_missed", "hi_miss", "lo_adm",
                      "lo_miss", "evac", "replans", "sheds", "resumes", "audit"});
  TimelineResult recover, replan, frozen;
  for (Mode mode : {Mode::kRecover, Mode::kReplan, Mode::kFrozen}) {
    TimelineResult r = RunTimeline(mode);
    table.AddRow({ModeName(mode), Adm(r.hi), std::to_string(r.hi.ontime),
                  std::to_string(r.hi.missed), Pct(r.hi.miss), Adm(r.lo), Pct(r.lo.miss),
                  std::to_string(r.rc.pcpu_evacuations),
                  std::to_string(r.rc.capacity_replans), std::to_string(r.rc.sheds),
                  std::to_string(r.rc.resumes),
                  std::to_string(r.rc.audit_violations) + "/" +
                      std::to_string(r.rc.audit_checks)});
    switch (mode) {
      case Mode::kRecover:
        recover = r;
        break;
      case Mode::kReplan:
        replan = r;
        break;
      case Mode::kFrozen:
        frozen = r;
        break;
    }
  }
  table.Print(std::cout);

  bool recover_ok = recover.hi.admitted == recover.hi.total && recover.hi.missed == 0 &&
                    recover.rc.pcpu_evacuations > 0 && recover.rc.capacity_replans > 0;
  bool audit_ok = recover.rc.audit_checks > 0 && recover.rc.audit_violations == 0;
  bool shed_ok = recover.rc.sheds > 0 && recover.rc.resumes > 0;
  bool frozen_shows = frozen.hi.missed > 0;
  std::cout << "check: recover hi " << Adm(recover.hi) << " missed=" << recover.hi.missed
            << " evac=" << recover.rc.pcpu_evacuations
            << " replans=" << recover.rc.capacity_replans << " => "
            << (recover_ok ? "PASS" : "FAIL")
            << " (HIGH misses nothing across the fault timeline)\n";
  std::cout << "check: audit checks=" << recover.rc.audit_checks << " violations="
            << recover.rc.audit_violations << " => " << (audit_ok ? "PASS" : "FAIL")
            << " (plan stayed within effective capacity)\n";
  std::cout << "check: sheds=" << recover.rc.sheds << " resumes=" << recover.rc.resumes
            << " => " << (shed_ok ? "PASS" : "FAIL")
            << " (LOW gave way at the trough and came back after heal)\n";
  std::cout << "check: frozen hi missed=" << frozen.hi.missed << " replan hi missed="
            << replan.hi.missed << " => " << (frozen_shows ? "PASS" : "FAIL")
            << " (frozen layout demonstrably misses)\n";
  return recover_ok && audit_ok && shed_ok && frozen_shows;
}

}  // namespace
}  // namespace rtvirt::bench

int main() { return rtvirt::bench::ResilienceTimeline() ? 0 : 1; }
