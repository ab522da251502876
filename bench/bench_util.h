// Shared helpers for the table/figure benches.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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

// Reads `arg` if it is `name=N` (name as in "--seeds") and returns whether
// it was. N must be a whole number from `min` to T's maximum; anything else
// makes `prog` exit 2 naming the flag and the value.
template <typename T>
bool WholeFlag(const char* prog, std::string_view arg, std::string_view name,
               std::type_identity_t<T> min, T* out) {
  if (!arg.starts_with(name) || arg.substr(name.size(), 1) != "=") {
    return false;
  }
  std::string_view value = arg.substr(name.size() + 1);
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (ec != std::errc() || ptr != end || *out < min) {
    std::cerr << prog << ": " << name << " needs a whole number from " << min << " to "
              << std::numeric_limits<T>::max() << ", got '" << value << "'\n";
    std::exit(2);
  }
  return true;
}

// Reads `arg` if it is `name=F` and returns whether it was. F must be a
// positive decimal such as 3 or 0.25 (no sign, exponent or trailing text);
// anything else makes `prog` exit 2 naming the flag and the value.
inline bool PositiveDecimalFlag(const char* prog, std::string_view arg, std::string_view name,
                                double* out) {
  if (!arg.starts_with(name) || arg.substr(name.size(), 1) != "=") {
    return false;
  }
  std::string_view value = arg.substr(name.size() + 1);
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, *out, std::chars_format::fixed);
  if (ec != std::errc() || ptr != end || !std::isfinite(*out) || *out <= 0) {
    std::cerr << prog << ": " << name << " needs a positive decimal number, got '" << value
              << "'\n";
    std::exit(2);
  }
  return true;
}

}  // namespace rtvirt::bench

#endif  // BENCH_BENCH_UTIL_H_
