// perfbench: end-to-end and per-layer benchmark of the RTVirt simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Builds and simulates the named workload repeatedly for about S seconds of
// host time. Every repetition sets up and runs the same seeded instances, so
// their simulated outcomes must match exactly; host times are normalized to a
// reference host speed (see Calibrate) and reported as medians over the
// repetitions (the first one warms caches and is not timed).
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions (decorators at the four layer
// boundaries, see trace.h) and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md in this directory is the metric dictionary.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_recorder.h"

namespace perfbench {
namespace {

using rtvirt::Sec;
using rtvirt::TimeNs;

// Each workload is an ensemble of `instances` independently seeded copies
// (instance 0 takes the seed itself, the others rtvirt::DeriveSeed(seed, k)),
// each simulated to `horizon`. Ensembles keep the amount of simulated work —
// and so the host time — nearly independent of the seed. Each instance is
// simulated in slices of `slice` simulated time (~0.2 s of host time), with a
// host-speed calibration between slices (see Calibrate).
struct Plan {
  int instances;
  TimeNs horizon;
  TimeNs slice;
};

Plan PlanFor(Workload w) {
  switch (w) {
    case Workload::kVideoChurn:
      return {48, Sec(20), Sec(20)};
    case Workload::kMcVideo:
      return {1, Sec(60), Sec(5)};
    case Workload::kVcpuScale:
      return {12, Sec(5), Sec(5)};
    case Workload::kAdmissionChurn:
      return {1, Sec(40), Sec(10)};
  }
  return {1, Sec(1), Sec(1)};
}

// Timed repetitions per run at least: untraced in a --trace 0 run, and each
// of untraced and traced in a --trace 1 run (whose repetitions cost ~2.5x).
constexpr int kMinTimedReps = 3;
constexpr int kMinTracedReps = 2;
constexpr int kMinSetupSamples = 31;
constexpr double kMemcachedSloUs = 500.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Host-speed calibration. The machines this runs on are shared, and their
// speed drifts by tens of percent within minutes and by up to 2x within an
// hour (a fixed seed repeated across processes shows it), which would bury
// any regression smaller than that. So every timed slice of simulation is
// bracketed by runs of a fixed reference kernel — a toy event loop with the
// simulator's mix of work: a time-ordered heap, pointer-keyed hash lookups,
// small vectors and std::function calls — that lives here, not in src/, so
// no change to the simulator moves it. Host times are reported scaled by
// kCalibNominalS / (kernel time around them): host seconds on a machine as
// fast as the one the constant was measured on. The raw wall time and the
// scale factor are per-layer metrics.
constexpr double kCalibNominalS = 0.025;
volatile uint64_t g_calibrate_sink = 0;

double Calibrate() {
  using Item = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  // A few MB of state, like a simulated machine: the kernel then feels the
  // same cache and memory-bandwidth contention the simulator does.
  constexpr uint32_t kObjects = 1 << 14;
  std::vector<std::vector<uint32_t>> objects(kObjects);
  std::unordered_map<const void*, uint64_t> table;
  uint64_t x = 88172645463325252ull;  // xorshift64 state.
  uint64_t acc = 0;
  for (uint32_t i = 0; i < kObjects; ++i) {
    queue.push({i, i});
  }
  double t0 = NowS();
  for (int i = 0; i < 150000; ++i) {
    auto [when, id] = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::vector<uint32_t>& v = objects[id];
    std::function<void()> callback = [&v, x] {
      v.push_back(static_cast<uint32_t>(x));
      if (v.size() > 64) {
        v.clear();
      }
    };
    callback();
    table[&v] += x & 0xff;
    acc += table[&objects[(x >> 9) % kObjects]];
    queue.push({when + x % 1000 + 1, id});
  }
  double elapsed = NowS() - t0;
  g_calibrate_sink = acc;  // Keeps the loop from being optimized away.
  return elapsed;
}

// Calibrates once on construction and again on every Next().
class Calibrator {
 public:
  Calibrator() : last_(Calibrate()) {}
  // Scale for the interval since the previous calibration, from the mean of
  // the kernel times just before and just after it.
  double Next() {
    double now = Calibrate();
    double scale = kCalibNominalS / ((last_ + now) / 2);
    last_ = now;
    return scale;
  }
  // Scale from the latest calibration alone.
  double Latest() const { return kCalibNominalS / last_; }

 private:
  double last_;
};

// One repetition: every instance of the plan set up and simulated once.
struct Rep {
  Outcome outcome;
  double setup_s = 0;     // Normalized host time.
  double run_s = 0;       // Normalized host time.
  double run_wall_s = 0;  // Raw wall time of the same slices.
  uint64_t run_allocs = 0;
  std::vector<Metric> layers;  // Traced repetitions only; times normalized.
};

uint64_t InstanceSeed(uint64_t seed, int k) {
  return k == 0 ? seed : rtvirt::DeriveSeed(seed, static_cast<uint64_t>(k));
}

// Per-layer metrics measured in one traced repetition. The metrics that need
// the untraced repetitions too are added by the caller.
std::vector<Metric> LayerMetrics(const SpanRecorder& rec, const Rep& rep) {
  std::vector<Metric> m;
  const rtvirt::OverheadStats& ov = rep.outcome.overhead;
  auto count = [&m](const std::string& name, double v) { m.push_back({name, v, "count"}); };
  count("hv.schedule_calls", static_cast<double>(ov.schedule_calls));
  count("hv.context_switches", static_cast<double>(ov.context_switches));
  count("hv.migrations", static_cast<double>(ov.migrations));
  count("hv.hypercalls", static_cast<double>(ov.hypercalls));
  count("hv.dispatches", static_cast<double>(rec.dispatches));

  const std::pair<const char*, Span> dpwrap[] = {
      {"pick", kPick}, {"wake", kWake}, {"block", kBlock}, {"account", kAccount},
      {"hypercall", kHypercall}};
  for (const auto& [name, span] : dpwrap) {
    const SpanStats& s = rec.stats(span);
    std::string p = std::string("dpwrap.") + name;
    count(p + ".calls", static_cast<double>(s.calls));
    m.push_back({p + ".self_ms", static_cast<double>(s.self_ns()) / 1e6, "ms"});
    m.push_back({p + ".ns_per_call", Ratio(static_cast<double>(s.total_ns),
                                           static_cast<double>(s.calls)), "ns"});
    count(p + ".allocs", static_cast<double>(s.allocs));
  }
  uint64_t replans = rep.outcome.replans;
  count("dpwrap.replans", static_cast<double>(replans));
  count("dpwrap.replans_timer", static_cast<double>(replans - rec.replans_in_calls));
  m.push_back({"dpwrap.pick.idle_ratio",
               Ratio(static_cast<double>(rec.pick_idle),
                     static_cast<double>(rec.stats(kPick).calls)), "ratio"});

  const std::pair<const char*, Span> channel[] = {
      {"request", kRequest}, {"release", kRelease}, {"move", kMove}, {"publish", kPublish}};
  int64_t channel_self = 0;
  for (const auto& [name, span] : channel) {
    count(std::string("channel.") + name + ".calls", static_cast<double>(rec.stats(span).calls));
    channel_self += rec.stats(span).self_ns();
  }
  m.push_back({"channel.self_ms", static_cast<double>(channel_self) / 1e6, "ms"});
  m.push_back({"channel.reject_ratio",
               Ratio(static_cast<double>(rec.channel_rejects),
                     static_cast<double>(rec.stats(kRequest).calls + rec.stats(kMove).calls)),
               "ratio"});

  const SpanStats& grant = rec.stats(kGrant);
  const SpanStats& revoke = rec.stats(kRevoke);
  count("guest.grant.calls", static_cast<double>(grant.calls));
  count("guest.revoke.calls", static_cast<double>(revoke.calls));
  m.push_back({"guest.grant.ns_per_call",
               Ratio(static_cast<double>(grant.total_ns), static_cast<double>(grant.calls)),
               "ns"});
  m.push_back({"guest.revoke.ns_per_call",
               Ratio(static_cast<double>(revoke.total_ns), static_cast<double>(revoke.calls)),
               "ns"});
  m.push_back({"guest.self_ms", static_cast<double>(grant.self_ns() + revoke.self_ns()) / 1e6,
               "ms"});

  const SpanStats& observe = rec.stats(kObserve);
  count("metrics.observe.calls", static_cast<double>(observe.calls));
  m.push_back({"metrics.observe.ns_per_call",
               Ratio(static_cast<double>(observe.total_ns), static_cast<double>(observe.calls)),
               "ns"});

  count("workloads.rtas_started", static_cast<double>(rep.outcome.rtas_started));
  count("workloads.requests_sent", static_cast<double>(rep.outcome.requests_sent));

  m.push_back({"core.self_ms",
               (rep.run_wall_s * 1e9 - static_cast<double>(rec.top_level_ns())) / 1e6, "ms"});
  count("core.allocs", static_cast<double>(rep.run_allocs - rec.top_level_allocs()));
  // Span times were measured raw; scale them like the run.
  double scale = rep.run_s / rep.run_wall_s;
  for (Metric& x : m) {
    if (x.unit == "ms" || x.unit == "ns") {
      x.value *= scale;
    }
  }
  return m;
}

Rep RunRep(Workload w, uint64_t seed, const Plan& plan, bool traced, Calibrator* cal) {
  Rep rep;
  SpanRecorder total;
  for (int k = 0; k < plan.instances; ++k) {
    SpanRecorder rec;
    double t0 = NowS();
    Instance inst(w, InstanceSeed(seed, k), plan.horizon, traced ? &rec : nullptr);
    rep.setup_s += (NowS() - t0) * cal->Latest();
    rec.Clear();  // Spans made while setting up are not part of the run.
    for (TimeNs until = plan.slice;; until += plan.slice) {
      uint64_t a0 = rtvirt::perf::AllocNow().allocs;
      double t1 = NowS();
      inst.RunTo(until);
      double wall = NowS() - t1;
      rep.run_allocs += rtvirt::perf::AllocNow().allocs - a0;
      rep.run_wall_s += wall;
      rep.run_s += wall * cal->Next();
      if (until >= inst.run_until()) {
        break;
      }
    }
    rep.outcome.Merge(inst.Collect());
    total.Add(rec);
  }
  if (traced) {
    rep.layers = LayerMetrics(total, rep);
  }
  return rep;
}

// Set-up only: builds every instance and tears it down unsimulated.
double SetupOnce(Workload w, uint64_t seed, const Plan& plan, Calibrator* cal) {
  double setup = 0;
  for (int k = 0; k < plan.instances; ++k) {
    double t0 = NowS();
    Instance inst(w, InstanceSeed(seed, k), plan.horizon, nullptr);
    setup += NowS() - t0;
  }
  return setup * cal->Next();
}

// Shortest round-trip decimal form: every digit as measured.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// Paper invariants of the simulated outcome. Each violation is named on
// stderr and counted as failed operations: a deadline miss on the three
// workloads where RTVirt misses none, and a refused registration on the two
// static setups that always fit the host. Churn can ask for more than the
// host has, so refusals on video_churn and admission_churn are admission
// control at work, and admission_churn (which overcommits on purpose) also
// misses a few deadlines: those are outcomes measured by the ratios.
uint64_t CheckInvariants(Workload w, const Outcome& o) {
  uint64_t failed = 0;
  const char* name = WorkloadName(w);
  if (w != Workload::kAdmissionChurn && o.misses > 0) {
    std::cerr << "invariant violated: " << name << ": " << o.misses << " deadline misses in "
              << o.jobs << " jobs (RTVirt misses none on this setup)\n";
    failed += o.misses;
  }
  if ((w == Workload::kMcVideo || w == Workload::kVcpuScale) && o.refused > 0) {
    std::cerr << "invariant violated: " << name << ": " << o.refused << " of "
              << o.registrations << " RTA registrations refused (the setup fits the host)\n";
    failed += o.refused;
  }
  if (w == Workload::kMcVideo && o.response_us.Percentile(99.9) > kMemcachedSloUs) {
    std::cerr << "invariant violated: mc_video: memcached p99.9 "
              << o.response_us.Percentile(99.9) << " us exceeds the 500 us SLO\n";
  }
  return failed;
}

// Internal consistency of one outcome.
bool Sane(const Outcome& o) {
  return o.jobs > 0 && o.primary_jobs == o.response_us.count() && o.registrations > 0 &&
         o.events > 0 && o.overhead.TotalTime() > 0 && o.machine_ns > 0;
}

void PrintPaperReference(Workload w, const Outcome& o, const Plan& plan) {
  std::cout << "Simulated outcome (" << plan.instances << " instance(s) x "
            << rtvirt::ToSec(plan.horizon) << " s simulated):\n";
  switch (w) {
    case Workload::kVideoChurn:
      std::cout << "  RTAs run " << o.rtas_started << ", RTAs with misses " << o.rtas_with_misses
                << ", worst per-RTA miss ratio " << o.worst_rta_miss_ratio * 100
                << "%   [paper fig4, one 10 min run: 54 RTAs, 5 with misses, worst 0.136%]\n";
      break;
    case Workload::kMcVideo:
      std::cout << "  memcached p99.9 " << o.response_us.Percentile(99.9)
                << " us, video misses " << o.secondary_misses << "/" << o.secondary_jobs
                << "   [paper fig5b RTVirt: p99.9 303 us, no video misses]\n";
      break;
    case Workload::kVcpuScale:
      std::cout << "  overhead " << 100.0 * Ratio(static_cast<double>(o.overhead.TotalTime()),
                                                  static_cast<double>(o.machine_ns))
                << "% of machine time, misses " << o.misses << "/" << o.jobs
                << "   [paper Table 6 single-RTA RTVirt: 0.93%, 0.007% misses]\n";
      break;
    case Workload::kAdmissionChurn:
      std::cout << "  registrations refused " << o.refused << "/" << o.registrations
                << ", misses " << o.misses << "/" << o.jobs << "   [no paper reference]\n";
      break;
  }
  std::cout << "  The model's costs are calibrated to the paper's figures; it is not validated "
               "against hardware.\n";
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  Workload w;
  if (argc % 2 != 1 || !ParseWorkload(workload_name, &w) || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    std::cerr << "usage: perfbench --workload video_churn|mc_video|vcpu_scale|admission_churn"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  if (!rtvirt::perf::AllocHooksActive()) {
    std::cerr << "perfbench: allocation hooks are not linked in\n";
    return 1;
  }
  const Plan plan = PlanFor(w);
  const bool traced_mode = trace == 1;

  // Warm-up repetition: fills caches and the allocator; checked, not timed.
  Calibrator cal;
  Rep warm = RunRep(w, seed, plan, false, &cal);
  const Outcome& ref = warm.outcome;
  bool correct = Sane(ref);
  if (!correct) {
    std::cerr << "perfbench: inconsistent outcome\n";
  }

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  double deadline = NowS() + seconds;
  const int min_reps = traced_mode ? kMinTracedReps : kMinTimedReps;
  while (static_cast<int>(plain.size()) < min_reps ||
         (traced_mode && static_cast<int>(traced.size()) < min_reps) || NowS() < deadline) {
    plain.push_back(RunRep(w, seed, plan, false, &cal));
    if (!plain.back().outcome.SameSimulation(ref)) {
      std::cerr << "perfbench: repetition " << plain.size() << " simulated differently\n";
      correct = false;
    }
    plain.back().outcome = Outcome{};  // Checked; keep memory flat across repetitions.
    if (traced_mode) {
      traced.push_back(RunRep(w, seed, plan, true, &cal));
      if (!traced.back().outcome.SameSimulation(ref)) {
        std::cerr << "perfbench: traced repetition " << traced.size()
                  << " simulated differently from the untraced run\n";
        correct = false;
      }
      traced.back().outcome = Outcome{};
    }
  }

  std::vector<double> run_s;
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  std::vector<double> run_allocs;
  std::vector<double> scale;
  for (const Rep& r : plain) {
    run_s.push_back(r.run_s);
    wall_s.push_back(r.run_wall_s);
    scale.push_back(r.run_s / r.run_wall_s);
    setup_s.push_back(r.setup_s);
    run_allocs.push_back(static_cast<double>(r.run_allocs));
  }
  double untraced_run_s = Median(run_s);
  double events = static_cast<double>(ref.events);

  std::vector<Metric> metrics;
  if (!traced_mode) {
    while (static_cast<int>(setup_s.size()) < kMinSetupSamples) {
      setup_s.push_back(SetupOnce(w, seed, plan, &cal));
    }
    metrics = {
        {"run_s", untraced_run_s, "s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(rtvirt::perf::PeakRssKb()) / 1024.0, "MB"},
        {"jobs_completed", static_cast<double>(ref.primary_jobs), "count"},
        {"job_met_ratio",
         Ratio(static_cast<double>(ref.jobs - ref.misses), static_cast<double>(ref.jobs)),
         "ratio"},
        {"rta_admit_ratio",
         Ratio(static_cast<double>(ref.registrations - ref.refused),
               static_cast<double>(ref.registrations)),
         "ratio"},
        {"p50_response_us", ref.response_us.Percentile(50), "us"},
        {"p999_response_us", ref.response_us.Percentile(99.9), "us"},
        {"overhead_pct",
         100.0 * Ratio(static_cast<double>(ref.overhead.TotalTime()),
                       static_cast<double>(ref.machine_ns)),
         "%"},
    };
  } else {
    const rtvirt::EventQueueStats& q = ref.queue;
    metrics = {
        {"sim.events", events, "count"},
        {"sim.schedules", static_cast<double>(q.schedules), "count"},
        {"sim.cancels", static_cast<double>(q.cancels), "count"},
        {"sim.cancel_ratio",
         Ratio(static_cast<double>(q.cancels), static_cast<double>(q.schedules)), "ratio"},
        {"sim.calendar_resizes", static_cast<double>(q.calendar_resizes), "count"},
        {"sim.ns_per_event", Ratio(untraced_run_s * 1e9, events), "ns"},
    };
    // Median of every traced metric over the traced repetitions.
    std::vector<double> traced_run_s;
    for (const Rep& r : traced) {
      traced_run_s.push_back(r.run_s);
    }
    for (size_t i = 0; i < traced.front().layers.size(); ++i) {
      std::vector<double> values;
      for (const Rep& r : traced) {
        values.push_back(r.layers[i].value);
      }
      const Metric& first = traced.front().layers[i];
      metrics.push_back({first.name, Median(values), first.unit});
    }
    double allocs = Median(run_allocs);
    metrics.push_back({"run.allocs", allocs, "count"});
    metrics.push_back({"run.allocs_per_event", Ratio(allocs, events), "count"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (Median(traced_run_s) / untraced_run_s - 1.0), "%"});
    metrics.push_back({"host.run_wall_s", Median(wall_s), "s"});
    metrics.push_back({"host.time_scale", Median(scale), "ratio"});
  }

  uint64_t failed = CheckInvariants(w, ref);
  uint64_t attempted = ref.jobs + ref.registrations;

  std::cout << "perfbench " << WorkloadName(w) << " seed " << seed << ": "
            << plain.size() << " timed repetition(s)"
            << (traced_mode ? " + " + std::to_string(traced.size()) + " traced" : "") << "\n";
  PrintPaperReference(w, ref, plan);
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit << "\n";
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
