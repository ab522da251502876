// The benchmark's four RTVirt workloads, assembled from the simulator's
// public constructors (Simulator, Machine, DpWrapScheduler, GuestOs,
// RtvirtGuestChannel, the workload drivers) rather than through Experiment,
// which installs its scheduler and channels privately. The assembly mirrors
// Experiment's default RTVirt path step for step — same VM/VCPU creation
// order, same RNG fork order — so at the paper horizons it simulates exactly
// what the fig4/fig5b benches simulate (perfbench_test checks this).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/rng.h"
#include "src/guest/guest_os.h"
#include "src/hv/machine.h"
#include "src/metrics/deadline_monitor.h"
#include "src/rtvirt/dpwrap.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/workloads/churn.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"

namespace perfbench {

enum class Workload {
  kVideoChurn,      // Figure 4: 4 VMs x 4 VCPUs of VLC-profile RTA episodes.
  kMcVideo,         // Figure 5b RTVirt row: 5 memcached + 10 video VMs.
  kVcpuScale,       // Table 6 single-RTA: 100 single-VCPU VMs.
  kAdmissionChurn,  // ChurnDriver with 0.1-2 s episodes on 8 VMs x 4 VCPUs.
};

// Parses a workload name; false if unknown.
bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

// The paper's simulated horizon for a workload (admission_churn, which is not
// in the paper, gets 120 s).
rtvirt::TimeNs PaperHorizon(Workload w);

// Simulated outcome of one or more instances. Everything here is a pure
// function of the simulated schedule: a change that only speeds the
// simulator up must leave every field bit-identical.
struct Outcome {
  uint64_t jobs = 0;           // Jobs/requests completed, all monitors.
  uint64_t misses = 0;         // Deadline misses, all monitors.
  uint64_t primary_jobs = 0;   // Sample count of `response_us`.
  rtvirt::Samples response_us; // Response times of the primary tasks.
  uint64_t registrations = 0;  // RTA registrations attempted.
  uint64_t refused = 0;        // ... refused by admission control.
  uint64_t rtas_started = 0;   // Admitted RTAs (workloads.rtas_started).
  uint64_t requests_sent = 0;  // memcached requests issued.
  int rtas_with_misses = 0;
  double worst_rta_miss_ratio = 0;
  uint64_t secondary_jobs = 0;  // mc_video: video jobs (paper: 0 misses).
  uint64_t secondary_misses = 0;
  rtvirt::OverheadStats overhead;
  int64_t machine_ns = 0;  // Sum of horizon x PCPUs: the overhead base.
  rtvirt::EventQueueStats queue;
  uint64_t events = 0;
  uint64_t replans = 0;      // DP-WRAP replans during Run() (set-up excluded).

  void Merge(const Outcome& o);
  // Simulated-result equality (what tracing and repetition must preserve).
  bool SameSimulation(const Outcome& o) const;
};

// One seeded instance of a workload: built (the set-up phase) by the
// constructor, simulated by Run(). With a non-null recorder every one of the
// four boundaries is wrapped in a tracing decorator.
class Instance {
 public:
  Instance(Workload workload, uint64_t seed, rtvirt::TimeNs horizon, SpanRecorder* rec);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Simulates to the workload's horizon; RunTo(t) stops early at t, so the
  // caller can time the run in slices. Slicing does not change the schedule.
  void Run() { RunTo(run_until_); }
  void RunTo(rtvirt::TimeNs until);
  rtvirt::TimeNs run_until() const { return run_until_; }
  Outcome Collect() const;

 private:
  rtvirt::GuestOs* AddGuest(const std::string& name, int vcpus, rtvirt::TimeNs slack);
  rtvirt::JobObserver* Observe(rtvirt::DeadlineMonitor* monitor);

  Workload workload_;
  rtvirt::TimeNs horizon_;
  rtvirt::TimeNs run_until_ = 0;
  uint64_t setup_replans_ = 0;
  bool started_ = false;
  SpanRecorder* rec_;
  rtvirt::Simulator sim_;
  rtvirt::Machine machine_;
  rtvirt::DpWrapScheduler* dpwrap_ = nullptr;
  rtvirt::Rng rng_;
  std::vector<std::unique_ptr<rtvirt::GuestOs>> guests_;
  std::vector<std::unique_ptr<TracedClient>> clients_;
  rtvirt::DeadlineMonitor primary_;
  rtvirt::DeadlineMonitor secondary_;
  std::unique_ptr<TracedObserver> primary_obs_;
  std::unique_ptr<TracedObserver> secondary_obs_;
  std::vector<std::unique_ptr<rtvirt::ChurnDriver>> churn_;
  std::vector<std::unique_ptr<rtvirt::MemcachedServer>> servers_;
  std::vector<std::unique_ptr<rtvirt::PeriodicRta>> rtas_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
