// Perf harness for the discrete-event core and the scheduler operations of
// paper section 4.5: runs its phases through the PerfRecorder and emits the
// schema-versioned BENCH_perf_suite.json that perf_gate diffs against the
// committed baseline (see DESIGN.md §5 for the schema and re-baselining).
//
// Phases:
//   * tab6_shape.calendar — the Table 6 event pattern (periodic RTAs with
//     Table 5 periods, a budget timer per release that the next release
//     cancels) driven through the raw EventQueue, swept over the Table 6
//     scales (100 / 1000 / 10000 / 100000 timers, equal pops each). This is
//     the pure event-core measurement, and it must allocate nothing after
//     warm-up (hard assert).
//   * cancel_churn.calendar — schedule+cancel pairs over a live set.
//   * sched_op.calendar — bare schedule+pop round trips.
//   * replan — 100 reserved VCPUs, 1 ms global slices: wall-clock ns per
//     DP-WRAP replan.
//   * wrap_layout.n{4,20,100} — one McNaughton wrap-around layout of n items
//     on 15 PCPUs.
//   * hypercall — one sched_rtvirt() INC_BW + DEC_BW round trip, including
//     the deferred replans it triggers.
//   * carts_search — one CARTS minimal-interface search.
//   * guest_edf.l{1,10} — one guest pEDF job cycle (release, EDF pick,
//     completion) with l RTAs on the VCPU.
//   * tab6_sim — the full single-RTA-VMs experiment at reduced duration,
//     measuring end-to-end simulated events/sec + peak RSS.
//
// Flags: --out=PATH (default BENCH_perf_suite.json), --scale=F (work
// multiplier for quick local runs; the committed baseline uses 1.0).
// Exits nonzero if the zero-alloc steady-state assertion fails.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/carts.h"
#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_recorder.h"
#include "src/perf/perf_report.h"
#include "src/rtvirt/wrap_layout.h"
#include "src/runner/experiment.h"
#include "src/sim/event_queue.h"
#include "src/workloads/groups.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

using perf::PerfRecorder;
using perf::PerfReport;
using perf::PhaseResult;

// The Table 6 scale sweep: timer counts matching the paper's small / mid /
// large VM populations, and beyond.
constexpr int kShapeSweep[] = {100, 1000, 10000, 100000};

// Keeps the optimizer from discarding a value computed only to be timed.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// Times `iters` calls of op(k) as one phase of `iters` ops.
template <typename Op>
PhaseResult Timed(PerfRecorder& rec, const std::string& phase, uint64_t iters, Op&& op) {
  rec.Begin(phase);
  for (uint64_t k = 0; k < iters; ++k) {
    op(k);
  }
  return rec.End(iters);
}

// The Table 6 event pattern on a raw queue: every release pop reschedules
// itself one period out, schedules a budget-enforcement timer just past the
// next release, and cancels the previous budget timer (which therefore never
// fires — the dominant cancel pattern of the VCPU budget machinery).
class ShapeSim : public EventTarget {
 public:
  explicit ShapeSim(int timers) {
    timers_.resize(static_cast<size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      timers_[static_cast<size_t>(i)].period =
          kTable5Groups[static_cast<size_t>(i) % kTable5Groups.size()].period;
      q_.Schedule(timers_[static_cast<size_t>(i)].period * (i + 1) / timers,
                  Event{this, kRelease, static_cast<uint64_t>(i)});
    }
  }

  // Pops (and handles) `pops` release events; returns total queue ops.
  uint64_t Pump(uint64_t pops) {
    uint64_t ops = 0;
    for (uint64_t k = 0; k < pops; ++k) {
      EventQueue::Fired fired = q_.PopNext();
      now_ = fired.time;
      fired.event.Fire();
      ops += 4;  // The pop, the cancel, and the two schedules it triggered.
    }
    return ops;
  }

  void OnEvent(uint32_t /*kind*/, uint64_t payload) override {
    Timer& t = timers_[payload];
    q_.Cancel(t.budget);
    t.budget = q_.Schedule(now_ + t.period + kNsPerUs, Event{this, kBudget, payload});
    q_.Schedule(now_ + t.period, Event{this, kRelease, payload});
  }

 private:
  enum : uint32_t { kRelease = 1, kBudget = 2 };
  struct Timer {
    TimeNs period = 0;
    EventQueue::EventId budget;
  };

  EventQueue q_;
  TimeNs now_ = 0;
  std::vector<Timer> timers_;
};

PhaseResult RunTab6Shape(PerfRecorder& rec, uint64_t pops_per_scale) {
  // Build and warm every scale before the measured window opens: each sim
  // must have fired all timers at least once (budget ids populated, arena
  // chunks carved, calendar resizes settled) so the window is steady state.
  std::vector<std::unique_ptr<ShapeSim>> sims;
  for (int timers : kShapeSweep) {
    sims.push_back(std::make_unique<ShapeSim>(timers));
    sims.back()->Pump(std::max<uint64_t>(4 * static_cast<uint64_t>(timers),
                                         pops_per_scale / 10));
  }
  std::vector<std::string> scale_keys;  // Built outside the measured window.
  for (int timers : kShapeSweep) {
    scale_keys.push_back("ns_per_pop.n" + std::to_string(timers));
  }
  rec.Begin("tab6_shape.calendar");
  uint64_t ops = 0;
  for (size_t s = 0; s < sims.size(); ++s) {
    uint64_t t0 = perf::MonotonicNowNs();
    ops += sims[s]->Pump(pops_per_scale);
    rec.Count(scale_keys[s], static_cast<double>(perf::MonotonicNowNs() - t0) /
                                 static_cast<double>(pops_per_scale));
  }
  rec.Count("pops", static_cast<double>(pops_per_scale * sims.size()));
  return rec.End(ops);
}

// Target of the raw-queue phases' events, which are never fired.
struct NoTarget : EventTarget {
  void OnEvent(uint32_t /*kind*/, uint64_t /*payload*/) override {}
};

PhaseResult RunCancelChurn(PerfRecorder& rec, uint64_t iters) {
  EventQueue q;
  NoTarget target;
  const Event event{&target, 0, 0};
  TimeNs t = 0;
  for (int i = 0; i < 128; ++i) {
    q.Schedule(++t + Ms(1), event);  // A live set the churn runs against.
  }
  for (uint64_t k = 0; k < iters / 8; ++k) {  // Warm the arena/freelist.
    EventQueue::EventId id = q.Schedule(++t, event);
    q.Cancel(id);
  }
  rec.Begin("cancel_churn.calendar");
  for (uint64_t k = 0; k < iters; ++k) {
    EventQueue::EventId id = q.Schedule(++t, event);
    q.Cancel(id);
  }
  return rec.End(iters * 2);
}

PhaseResult RunSchedOp(PerfRecorder& rec, uint64_t iters) {
  EventQueue q;
  NoTarget target;
  const Event event{&target, 0, 0};
  TimeNs t = 0;
  for (int i = 0; i < 128; ++i) {
    q.Schedule(++t + Us(100), event);
  }
  for (uint64_t k = 0; k < iters / 8; ++k) {  // Warm-up.
    q.Schedule(++t + Us(100), event);
    q.PopNext();
  }
  rec.Begin("sched_op.calendar");
  for (uint64_t k = 0; k < iters; ++k) {
    q.Schedule(++t + Us(100), event);
    q.PopNext();
  }
  return rec.End(iters * 2);
}

// One DP-WRAP global slice per ms with 100 reserved VCPUs: the recurring
// replan + dispatch cost the 250 us minimum global slice bounds.
PhaseResult RunReplan(PerfRecorder& rec, int iters) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int i = 0; i < 100; ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    rtas.push_back(std::make_unique<PeriodicRta>(
        g, "rta", RtaParams{Ms(1), Ms(2 + (i % 7)), false}));
    rtas.back()->Start(0, Sec(100000));
  }
  exp.Run(Ms(10));
  uint64_t replans_before = exp.dpwrap()->replans();
  TimeNs t = Ms(10);
  rec.Begin("replan");
  for (int k = 0; k < iters; ++k) {
    t += Ms(1);
    exp.Run(t);
  }
  uint64_t replans = exp.dpwrap()->replans() - replans_before;
  rec.Count("replans", static_cast<double>(replans));
  return rec.End(replans);
}

// McNaughton wrap-around of n items at ~50% total utilization, each capped
// at one PCPU.
PhaseResult RunWrapLayout(PerfRecorder& rec, int n, uint64_t iters) {
  std::vector<WrapItem> items;
  TimeNs slice = Us(250);
  for (int i = 0; i < n; ++i) {
    items.push_back(WrapItem{i, std::min(slice, slice * 15 / (2 * n))});
  }
  return Timed(rec, "wrap_layout.n" + std::to_string(n), iters,
               [&](uint64_t) { Keep(WrapAround(items, slice, 15)); });
}

// sched_rtvirt() round trip: INC_BW admission + DEC_BW release, then the
// deferred replans they triggered.
PhaseResult RunHypercall(PerfRecorder& rec, uint64_t iters) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  exp.Run(1);
  HypercallArgs inc;
  inc.op = SchedOp::kIncBw;
  inc.vcpu_a = v;
  inc.bw_a = Bandwidth::FromDouble(0.5);
  inc.period_a = Ms(10);
  HypercallArgs dec = inc;
  dec.op = SchedOp::kDecBw;
  dec.bw_a = Bandwidth::Zero();
  return Timed(rec, "hypercall", iters, [&](uint64_t k) {
    Keep(exp.machine().Hypercall(v, inc));
    Keep(exp.machine().Hypercall(v, dec));
    exp.Run(1 + 1000 * static_cast<TimeNs>(k + 1));
  });
}

PhaseResult RunCartsSearch(PerfRecorder& rec, uint64_t iters) {
  std::vector<RtaParams> tasks{{Ms(23), Ms(30), false}};
  return Timed(rec, "carts_search", iters,
               [&](uint64_t) { Keep(MinimalInterface(tasks, CartsOptions{Ms(1), 0, 0})); });
}

// Guest pEDF dispatch: release -> EDF pick -> completion, with l tasks on
// the VCPU (the O(log l) guest-level cost of section 4.5).
PhaseResult RunGuestEdf(PerfRecorder& rec, int l, uint64_t iters) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 2;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  std::vector<Task*> tasks;
  for (int i = 0; i < l; ++i) {
    Task* t = g->CreateTask("t" + std::to_string(i));
    g->SchedSetAttr(t, RtaParams{Us(10), Ms(10 + i), false});
    tasks.push_back(t);
  }
  exp.Run(1);
  return Timed(rec, "guest_edf.l" + std::to_string(l), iters, [&](uint64_t k) {
    TimeNs t = 1 + Us(50) * static_cast<TimeNs>(k);
    g->ReleaseJob(tasks[k % tasks.size()], Us(10), t + Ms(10));
    exp.Run(t + Us(50));
  });
}

// The Table 6 single-RTA-VMs scenario end to end (100 VMs, RTVirt), at a
// CI-friendly duration. Ops = simulator events processed.
PhaseResult RunTab6Sim(PerfRecorder& rec, TimeNs duration) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  int vm = 0;
  for (int copy = 0; copy < 10; ++copy) {
    for (const RtaParams& params : kTable5Groups) {
      GuestOs* g = exp.AddGuest("vm" + std::to_string(vm++), 1);
      rtas.push_back(std::make_unique<PeriodicRta>(g, "rta", params));
      rtas.back()->Start(0, duration);
    }
  }
  rec.Begin("tab6_sim");
  exp.Run(duration + Ms(500));
  uint64_t events = exp.sim().events_processed();
  rec.Count("sim_events", static_cast<double>(events));
  return rec.End(events);
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_perf_suite.json";
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      scale = std::atof(arg + 8);
    } else {
      std::fprintf(stderr, "usage: perf_suite [--out=PATH] [--scale=F]\n");
      return 2;
    }
  }
  if (scale <= 0) {
    std::fprintf(stderr, "perf_suite: --scale must be positive\n");
    return 2;
  }
  if (!perf::AllocHooksActive()) {
    std::fprintf(stderr,
                 "perf_suite: allocation hooks are not linked in — the zero-alloc "
                 "gate cannot run\n");
    return 1;
  }

  auto scaled = [scale](uint64_t n) { return static_cast<uint64_t>(static_cast<double>(n) * scale); };
  PerfRecorder rec;
  std::printf("perf_suite: event-core + scheduler-op measurement (scale %.2f)\n", scale);

  PhaseResult shape = RunTab6Shape(rec, scaled(400000));
  PhaseResult churn = RunCancelChurn(rec, scaled(2000000));
  PhaseResult sched = RunSchedOp(rec, scaled(2000000));
  PhaseResult replan = RunReplan(rec, static_cast<int>(scaled(300)));
  std::vector<PhaseResult> wraps;
  for (int n : {4, 20, 100}) {
    wraps.push_back(RunWrapLayout(rec, n, scaled(2000000 / static_cast<uint64_t>(n))));
  }
  PhaseResult hypercall = RunHypercall(rec, scaled(20000));
  PhaseResult carts = RunCartsSearch(rec, scaled(2000));
  std::vector<PhaseResult> guest_edf;
  for (int l : {1, 10}) {
    guest_edf.push_back(RunGuestEdf(rec, l, scaled(50000)));
  }
  PhaseResult sim = RunTab6Sim(rec, Sec(2));
  uint64_t peak_rss = perf::PeakRssKb();

  for (const PhaseResult& p : rec.phases()) {
    std::printf("  %-22s %10llu ops  %8.1f ns/op  %12.0f ops/s  %llu allocs\n",
                p.name.c_str(), static_cast<unsigned long long>(p.ops), p.NsPerOp(),
                p.OpsPerSec(), static_cast<unsigned long long>(p.allocs));
  }

  // Event throughput: popped events per wall second on the tab6 shape.
  double eps = shape.counters.at("pops") * 1e9 / static_cast<double>(shape.wall_ns);
  std::printf("  tab6_shape events/sec: %.0f\n", eps);
  for (int timers : kShapeSweep) {
    std::string key = "ns_per_pop.n" + std::to_string(timers);
    std::printf("    n=%-6d %7.1f ns/pop\n", timers, shape.counters.at(key));
  }
  std::printf("  replan: %.0f ns/replan; tab6_sim: %.0f ev/s; peak RSS %llu KiB\n",
              replan.NsPerOp(), sim.OpsPerSec(), static_cast<unsigned long long>(peak_rss));

  PerfReport report;
  report.suite = "perf_suite";
#ifdef NDEBUG
  report.meta["build"] = "Release";
#else
  report.meta["build"] = "asserts-on";
#endif
  report.Add("tab6_shape.calendar.events_per_sec", eps, "events/s", true, 0.40);
  report.Add("tab6_shape.calendar.ns_per_op", shape.NsPerOp(), "ns", false, 0.40);
  report.Add("tab6_shape.calendar.steady_allocs_per_op", shape.AllocsPerOp(), "allocs/op",
             false, 0.0);
  report.Add("cancel_churn.calendar.ns_per_op", churn.NsPerOp(), "ns", false, 0.40);
  report.Add("sched_op.calendar.ns_per_op", sched.NsPerOp(), "ns", false, 0.40);
  report.Add("replan.ns_per_replan", replan.NsPerOp(), "ns", false, 0.50);
  for (const PhaseResult& p : wraps) {
    report.Add(p.name + ".ns_per_op", p.NsPerOp(), "ns", false, 0.50);
  }
  report.Add("hypercall.ns_per_round_trip", hypercall.NsPerOp(), "ns", false, 0.50);
  report.Add("carts_search.ns_per_op", carts.NsPerOp(), "ns", false, 0.50);
  for (const PhaseResult& p : guest_edf) {
    report.Add(p.name + ".ns_per_job", p.NsPerOp(), "ns", false, 0.50);
  }
  report.Add("tab6_sim.events_per_sec", sim.OpsPerSec(), "events/s", true, 0.50);
  report.Add("peak_rss_kb", static_cast<double>(peak_rss), "KiB", false, 0.75);
  if (!report.WriteFile(out_path)) {
    return 1;
  }
  std::printf("perf_suite: wrote %s (%zu metrics, schema v%d)\n", out_path.c_str(),
              report.metrics.size(), report.schema_version);

  // The zero-alloc steady state is an invariant, not a perf number: fail the
  // run outright if the measured window allocated at all.
  if (shape.allocs != 0) {
    std::fprintf(stderr,
                 "perf_suite: FAIL — calendar steady state performed %llu allocations "
                 "(%llu bytes) over %llu ops; expected zero\n",
                 static_cast<unsigned long long>(shape.allocs),
                 static_cast<unsigned long long>(shape.alloc_bytes),
                 static_cast<unsigned long long>(shape.ops));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rtvirt

int main(int argc, char** argv) { return rtvirt::Run(argc, argv); }
