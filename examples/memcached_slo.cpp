// memcached tail-latency example (paper section 4.4): an in-memory cache VM
// with a 500 us / 99.9th-percentile SLO shares two PCPUs with a crowd of
// CPU-bound VMs. The same scenario runs under Xen's default Credit
// scheduler and under RTVirt; only RTVirt keeps the tail under the SLO
// while the hogs still receive the residual bandwidth.

#include <iostream>
#include <vector>

#include "src/metrics/deadline_monitor.h"
#include "src/metrics/report.h"
#include "src/runner/experiment.h"
#include "src/workloads/memcached.h"

namespace {

struct RunResult {
  rtvirt::Samples latency;
  rtvirt::TimeNs hog_runtime = 0;
  uint64_t requests = 0;
};

RunResult RunUnder(rtvirt::Framework fw) {
  using namespace rtvirt;
  ExperimentConfig config;
  config.framework = fw;
  config.machine.num_pcpus = 2;
  if (fw == Framework::kCredit) {
    config.credit.timeslice = Ms(1);
  }
  Experiment host(config);

  GuestOs* cache = host.AddGuest("cache-vm", 1);
  if (fw == Framework::kCredit) {
    cache->vm()->set_weight(1710);  // ~26% share vs the 19 hogs below.
  }
  std::vector<GuestOs*> hogs;
  for (int i = 0; i < 19; ++i) {
    hogs.push_back(host.AddGuest("hog" + std::to_string(i), 1));
    hogs.back()->CreateBackgroundTask("spin");
  }

  DeadlineMonitor monitor;
  MemcachedConfig mcfg;  // 100 qps, 500 us SLO, 58 us reservation slice.
  MemcachedServer server(cache, "memcached", mcfg, host.rng().Fork());
  server.task()->set_observer(&monitor);
  server.Start(0, Sec(60));
  host.Run(Sec(60) + Ms(10));

  RunResult result;
  result.latency = monitor.response_times_us();
  result.requests = server.requests_sent();
  for (GuestOs* hog : hogs) {
    result.hog_runtime += hog->vm()->TotalRuntime();
  }
  return result;
}

}  // namespace

int main() {
  using namespace rtvirt;
  std::cout << "memcached with a 500 us @ p99.9 SLO vs 19 CPU hogs on 2 PCPUs\n\n";
  TablePrinter table({"scheduler", "requests", "mean (us)", "p99 (us)", "p99.9 (us)", "SLO"});
  RunResult credit = RunUnder(Framework::kCredit);
  RunResult rtv = RunUnder(Framework::kRtvirt);
  auto row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, std::to_string(r.requests), TablePrinter::Fmt(r.latency.Mean(), 1),
                  TablePrinter::Fmt(r.latency.Percentile(99), 1),
                  TablePrinter::Fmt(r.latency.Percentile(99.9), 1),
                  r.latency.Percentile(99.9) <= 500.0 ? "met" : "MISSED"});
  };
  row("Credit", credit);
  row("RTVirt", rtv);
  table.Print(std::cout);

  std::cout << "\nRTVirt latency CDF:\n";
  PrintCdf(std::cout, rtv.latency, 10, "us");
  std::cout << "\nHog throughput under RTVirt: "
            << TablePrinter::Fmt(ToSec(rtv.hog_runtime), 1)
            << " CPU-seconds (the reservation is only "
            << TablePrinter::Fmt(Bandwidth::FromSlicePeriod(Us(58), Us(500)).ToDouble(), 3)
            << " CPUs; everything else stays work-conserving)\n";
  return rtv.latency.Percentile(99.9) <= 500.0 ? 0 : 1;
}
