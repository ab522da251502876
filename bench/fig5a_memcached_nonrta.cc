// Figure 5a: latency distribution of a memcached VM contending with 19
// non-RTA CPU-bound VMs on two PCPUs, under Credit (26% share, 1 ms
// timeslice, 500 us ratelimit), RT-Xen A (66 us / 283 us), RT-Xen B
// (33 us / 177 us) and RTVirt (58 us / 500 us). SLO: 500 us at the 99.9th
// percentile. Prints each configuration's latency percentiles, the CDF
// series, and the CPU bandwidth it reserves.

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace rtvirt {
namespace {

constexpr TimeNs kDuration = Sec(200);
constexpr TimeNs kSlo = Us(500);

struct Setup {
  const char* name;
  Framework fw;
  ServerParams server;    // RT-Xen only.
  TimeNs rtvirt_slice;    // RTVirt only.
  double credit_share;    // Credit only.
  const char* paper_999;
};

struct Outcome {
  Samples latency;
  double reserved_cpus = 0;
  TimeNs hog_runtime = 0;
};

Outcome Run(const Setup& setup) {
  ExperimentConfig cfg = bench::Config(setup.fw, 2);
  if (setup.fw == Framework::kCredit) {
    cfg.credit.timeslice = Ms(1);  // Paper: global timeslice 1 ms.
  }
  Experiment exp(cfg);
  GuestOs* mc = exp.AddGuest("memcached", 1);

  Outcome out;
  MemcachedConfig mcfg;
  switch (setup.fw) {
    case Framework::kRtvirt:
      mcfg.slice = setup.rtvirt_slice;
      bench::SetMicroSlack(exp, mc);  // 6 us slack on the 500 us period.
      break;
    case Framework::kRtXen: {
      exp.SetVcpuServer(mc->vm()->vcpu(0), setup.server);
      Bandwidth bw = Bandwidth::FromSlicePeriod(setup.server.budget, setup.server.period);
      mc->SetVcpuCapacity(0, bw);
      mcfg.slice = std::min(setup.server.budget, Us(66));
      out.reserved_cpus = bw.ToDouble();
      break;
    }
    case Framework::kCredit: {
      // Weight equivalent to the reserved share among the 19 hog VMs.
      int hog_weight = 256;
      int total_needed = static_cast<int>(19 * hog_weight / (1.0 - setup.credit_share) *
                                          setup.credit_share);
      mc->vm()->set_weight(total_needed);
      out.reserved_cpus = setup.credit_share * 2;  // Share of both PCPUs.
      break;
    }
    default:
      break;
  }

  std::vector<GuestOs*> hogs;
  for (int i = 0; i < 19; ++i) {
    GuestOs* hog = exp.AddGuest("hog" + std::to_string(i), 1);
    hog->CreateBackgroundTask("bg");
    hogs.push_back(hog);
  }

  DeadlineMonitor mon;
  MemcachedServer server(mc, "mc", mcfg, exp.rng().Fork());
  server.task()->set_observer(&mon);
  server.Start(0, kDuration);
  exp.Run(Sec(1));
  if (setup.fw == Framework::kRtvirt) {
    // The actual host reservation (RTA bandwidth + slack).
    out.reserved_cpus = exp.dpwrap()->total_reserved().ToDouble();
  }
  exp.Run(kDuration + Ms(10));
  out.latency = mon.response_times_us();
  for (GuestOs* hog : hogs) {
    out.hog_runtime += hog->vm()->TotalRuntime();
  }
  return out;
}

}  // namespace
}  // namespace rtvirt

int main() {
  using namespace rtvirt;
  bench::Header("Figure 5a: memcached vs 19 non-RTA VMs on 2 PCPUs (SLO: 500 us @ p99.9)");

  const Setup setups[] = {
      {"Credit", Framework::kCredit, {}, 0, 0.26, "7100"},
      {"RT-Xen A", Framework::kRtXen, {Us(66), Us(283)}, 0, 0, "114"},
      {"RT-Xen B", Framework::kRtXen, {Us(33), Us(177)}, 0, 0, "8400"},
      {"RTVirt", Framework::kRtvirt, {}, Us(58), 0, "379"},
  };

  TablePrinter table({"Config", "reserved CPUs", "mean", "p99", "p99.9", "SLO met",
                      "paper p99.9", "hog CPU-s"});
  std::vector<std::pair<const char*, Samples>> cdfs;
  for (const Setup& s : setups) {
    Outcome out = Run(s);
    table.AddRow({s.name, TablePrinter::Fmt(out.reserved_cpus, 3),
                  TablePrinter::Fmt(out.latency.Mean(), 1),
                  TablePrinter::Fmt(out.latency.Percentile(99), 1),
                  TablePrinter::Fmt(out.latency.Percentile(99.9), 1),
                  out.latency.Percentile(99.9) <= ToUs(kSlo) ? "yes" : "NO", s.paper_999,
                  TablePrinter::Fmt(ToSec(out.hog_runtime), 1)});
    cdfs.emplace_back(s.name, std::move(out.latency));
  }
  table.Print(std::cout);

  std::cout << "\nLatency CDFs (us), 20 points each:\n";
  for (auto& [name, samples] : cdfs) {
    std::cout << name << ":\n";
    PrintCdf(std::cout, samples, 20, "us");
  }
  std::cout << "\nPaper: only RTVirt and RT-Xen A meet the SLO; RTVirt uses 50.2% less CPU\n"
               "bandwidth than RT-Xen A.\n";
  return 0;
}
