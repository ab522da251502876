// Shared helpers for the table/figure benches.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/carts.h"
#include "src/analysis/dmpr.h"
#include "src/metrics/deadline_monitor.h"
#include "src/metrics/report.h"
#include "src/runner/experiment.h"
#include "src/workloads/groups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"
#include "src/workloads/sporadic.h"
#include "src/workloads/vlc.h"

namespace rtvirt::bench {

inline ExperimentConfig Config(Framework fw, int pcpus = 15) {
  ExperimentConfig cfg;
  cfg.framework = fw;
  cfg.machine.num_pcpus = pcpus;
  return cfg;
}

// CARTS interface (1 ms grid, as the published Table 2 values use) for one
// VCPU's task set. An infeasible task set is a bench configuration bug, so
// it aborts — but only after naming every task so the offending set can be
// read straight off the failure output.
inline PeriodicResource CartsInterface(const std::vector<RtaParams>& tasks,
                                       TimeNs granularity = Ms(1)) {
  auto iface = MinimalInterface(tasks, CartsOptions{granularity, 0, 0});
  if (!iface.has_value()) {
    std::cerr << "CARTS: no feasible interface at granularity " << granularity
              << " ns for task set (" << tasks.size() << " tasks):\n";
    for (size_t i = 0; i < tasks.size(); ++i) {
      const RtaParams& t = tasks[i];
      std::cerr << "  task[" << i << "]: budget=" << t.slice << " ns period=" << t.period
                << " ns util=" << TablePrinter::Fmt(t.bandwidth().ToDouble(), 4)
                << (t.sporadic ? " sporadic" : " periodic") << "\n";
    }
    std::abort();
  }
  return *iface;
}

// Creates a single-RTA VM under RT-Xen: CARTS-derived server, capacity set
// to the interface bandwidth, pEDF guest.
inline GuestOs* AddRtXenVm(Experiment& exp, const std::string& name, const RtaParams& rta,
                           PeriodicResource* iface_out = nullptr) {
  GuestOs* g = exp.AddGuest(name, 1);
  PeriodicResource iface = CartsInterface({rta});
  exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{iface.budget, iface.period});
  g->SetVcpuCapacity(0, iface.bandwidth());
  if (iface_out != nullptr) {
    *iface_out = iface;
  }
  return g;
}

// Gives `guest`'s RTVirt channel a small absolute slack — the
// microsecond-period analogue of the paper's 500 us slack (which targets
// millisecond periods). No-op for non-RTVirt frameworks.
inline void SetMicroSlack(Experiment& exp, GuestOs* guest, TimeNs slack = Us(6)) {
  if (RtvirtGuestChannel* channel = exp.ChannelOf(guest)) {
    GuestChannelOptions opts = exp.config().channel;
    opts.budget_slack = slack;
    channel->set_options(opts);
  }
}

inline std::string Cpus(Bandwidth bw) { return TablePrinter::Fmt(bw.ToDouble(), 3); }

inline std::string Pct(double fraction) { return TablePrinter::Pct(fraction, 3); }

inline void Header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace rtvirt::bench

#endif  // BENCH_BENCH_UTIL_H_
