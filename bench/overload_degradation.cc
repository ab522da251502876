// Overload-degradation evaluation (robustness PR): a utilization ramp from
// 0.7x to ~1.8x of host capacity (reservations incl. channel slack), built
// from three criticality tiers of churning RTAs:
//
//   t = 0 s   LOW  tier:  6 x 0.45 CPU elastic (min 0.225) -> demand 0.7x
//   t = 2 s   MED  tier:  4 x 0.45 CPU elastic (min 0.225) -> demand 1.2x
//   t = 4-8 s HIGH tier: 12 x 0.19 CPU inelastic, staggered -> demand 1.8x
//   t = 24 s  HIGH tier unregisters                         -> recovery
//
// Task utilizations deliberately stop short of packing any VCPU to exactly
// 1.0: the channel's budget slack is the margin that drains the transient
// backlog a task accumulates while its admission (or a compression step)
// is still settling. With exact reservations any such transient would turn
// into permanent tardiness — supply would never exceed demand again.
//
// Rejected applications keep retrying every 50 ms (an arrival does not give
// up because the system is busy). Three configurations:
//
//   shed    - mixed-criticality overload control on at both layers (guest
//             elastic compression + shedding, host pressure signal) plus the
//             cross-layer invariant auditor;
//   binary  - the classic admit/reject test (all knobs off): whoever got in
//             first keeps the bandwidth, HIGH arrivals are locked out;
//   none    - no admission protection (epsilon raised past total demand):
//             everything is admitted and the DP-WRAP plan starves the tail.
//
// Acceptance: with shedding, every HIGH RTA is admitted and its miss ratio
// stays ~0 through the ramp; binary locks HIGH arrivals out (or misses);
// none collapses; the auditor observes zero invariant violations.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/resilience.h"
#include "src/workloads/churn.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRunLength = Sec(30);
constexpr TimeNs kHighStop = Sec(24);
constexpr int kPcpus = 4;
constexpr int kLowTasks = 6;
constexpr int kMedTasks = 4;
constexpr int kHighTasks = 12;
constexpr TimeNs kRetry = Ms(50);

enum class Mode { kShed, kBinary, kNone };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kShed:
      return "shed";
    case Mode::kBinary:
      return "binary";
    case Mode::kNone:
      return "none";
  }
  return "?";
}

struct TierResult {
  int total = 0;
  int admitted = 0;
  uint64_t ontime = 0;  // Completions that met their deadline.
  double miss = 0.0;    // Miss ratio over completed jobs.
};

struct RampResult {
  TierResult hi, med, lo;
  ResilienceCounters rc;
  uint64_t audit_checks = 0;
  uint64_t audit_violations = 0;
};

// One criticality tier: a ChurnDriver whose every slot runs a single fixed
// profile episode for the whole window (the churn machinery provides the
// staggered arrivals and the retry loop).
ChurnConfig Tier(TimeNs start_at, TimeNs stagger, TimeNs stop, RtaParams profile,
                 Criticality crit, double elastic_min) {
  ChurnConfig c;
  c.experiment_len = stop;
  c.min_episode = kRunLength + Sec(10);  // Longer than the window: one
  c.max_episode = kRunLength + Sec(10);  // episode per slot, capped at stop.
  c.max_gap = stagger;
  c.idle_prob = 0.0;
  c.start_at = start_at;
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
  r.miss = mon.TotalMissRatio();
  return r;
}

RampResult RunRamp(Mode mode) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpus);
  if (mode == Mode::kShed) {
    cfg.dpwrap.overload.enabled = true;
    // Clear pressure once the compressed system fits comfortably; the
    // default 0.85 sits exactly on this scenario's post-shed utilization.
    cfg.dpwrap.overload.low_watermark = 0.90;
    cfg.audit.enabled = true;
  } else if (mode == Mode::kNone) {
    // Ablation: admission never says no (epsilon beyond total demand).
    cfg.dpwrap.admission_epsilon_ppb = Bandwidth::Cpus(16).ppb();
  }
  GuestConfig gcfg;
  gcfg.overload.enabled = mode == Mode::kShed;

  Experiment exp(cfg);
  GuestOs* lo = exp.AddGuest("lo", kLowTasks, gcfg);
  GuestOs* med = exp.AddGuest("med", kMedTasks, gcfg);
  GuestOs* hi = exp.AddGuest("hi", kHighTasks, gcfg);

  DeadlineMonitor lo_mon, med_mon, hi_mon;
  RtaParams half{Us(4500), Ms(10)};
  RtaParams fifth{Us(1900), Ms(10)};
  ChurnDriver lo_churn(lo, Tier(0, Ms(500), kRunLength, half, Criticality::kLow, 0.5),
                       Rng(101), &lo_mon);
  ChurnDriver med_churn(med, Tier(Sec(2), Ms(500), kRunLength, half, Criticality::kMed, 0.5),
                        Rng(102), &med_mon);
  ChurnDriver hi_churn(hi, Tier(Sec(4), Sec(4), kHighStop, fifth, Criticality::kHigh, 1.0),
                       Rng(103), &hi_mon);
  lo_churn.Start();
  med_churn.Start();
  hi_churn.Start();
  exp.Run(kRunLength);

  RampResult r;
  r.hi = Summarize(hi_churn, hi_mon);
  r.med = Summarize(med_churn, med_mon);
  r.lo = Summarize(lo_churn, lo_mon);
  r.rc = exp.resilience();
  if (exp.auditor() != nullptr) {
    r.audit_checks = exp.auditor()->stats().audit_checks;
    r.audit_violations = exp.auditor()->stats().audit_violations;
    for (const AuditViolation& v : exp.auditor()->violations()) {
      std::cout << "audit violation @" << v.time << " ns [" << v.invariant << "] "
                << v.detail << "\n";
    }
  }
  return r;
}

std::string Adm(const TierResult& t) {
  return std::to_string(t.admitted) + "/" + std::to_string(t.total);
}

// Returns whether every check passed.
bool OverloadRamp() {
  Header("Overload ramp (0.7x -> 1.8x demand): criticality-aware shedding "
         "vs binary admission vs no protection");
  TablePrinter table({"config", "hi_adm", "hi_ontime", "hi_miss", "med_adm", "med_miss",
                      "lo_adm", "lo_miss", "sheds", "compr", "resumes", "expand",
                      "pressure"});
  RampResult shed, binary, none;
  for (Mode mode : {Mode::kShed, Mode::kBinary, Mode::kNone}) {
    RampResult r = RunRamp(mode);
    table.AddRow({ModeName(mode), Adm(r.hi), std::to_string(r.hi.ontime), Pct(r.hi.miss),
                  Adm(r.med), Pct(r.med.miss), Adm(r.lo), Pct(r.lo.miss),
                  std::to_string(r.rc.sheds), std::to_string(r.rc.compressions),
                  std::to_string(r.rc.resumes), std::to_string(r.rc.expansions),
                  std::to_string(r.rc.pressure_raises) + "/" +
                      std::to_string(r.rc.pressure_clears)});
    switch (mode) {
      case Mode::kShed:
        shed = r;
        break;
      case Mode::kBinary:
        binary = r;
        break;
      case Mode::kNone:
        none = r;
        break;
    }
  }
  table.Print(std::cout);

  bool shed_ok = shed.hi.admitted == shed.hi.total && shed.hi.miss <= 0.005 &&
                 shed.rc.sheds > 0 && shed.rc.resumes > 0;
  bool audit_ok = shed.audit_checks > 0 && shed.audit_violations == 0;
  bool binary_shows = binary.hi.admitted < binary.hi.total || binary.hi.miss > 0.02;
  bool none_shows = none.hi.miss > 0.02 || none.hi.ontime < shed.hi.ontime / 2;
  std::cout << "check: shed hi " << Adm(shed.hi) << " miss=" << Pct(shed.hi.miss)
            << " sheds=" << shed.rc.sheds << " resumes=" << shed.rc.resumes << " => "
            << (shed_ok ? "PASS" : "FAIL") << " (all HIGH admitted, ~0 misses)\n";
  std::cout << "check: audit checks=" << shed.audit_checks << " violations="
            << shed.audit_violations << " => " << (audit_ok ? "PASS" : "FAIL")
            << " (auditor ran clean)\n";
  std::cout << "check: binary hi " << Adm(binary.hi) << " miss=" << Pct(binary.hi.miss)
            << " => " << (binary_shows ? "PASS" : "FAIL")
            << " (binary admission locks HIGH out or misses)\n";
  std::cout << "check: none hi ontime=" << none.hi.ontime << " miss=" << Pct(none.hi.miss)
            << " vs shed ontime=" << shed.hi.ontime << " => "
            << (none_shows ? "PASS" : "FAIL") << " (no protection collapses)\n";
  return shed_ok && audit_ok && binary_shows && none_shows;
}

}  // namespace
}  // namespace rtvirt::bench

int main() { return rtvirt::bench::OverloadRamp() ? 0 : 1; }
