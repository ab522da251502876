// memcached + Mutilate model (paper 4.4).
//
// A memcached VM hosts one sporadic RTA servicing GET requests; a Mutilate
// client on another host issues requests with normally distributed
// inter-arrival times at an average rate (paper: 100 qps, Facebook-like GETs
// of 200 B values). Each request triggers a one-shot CPU-bound job whose
// service time follows a log-normal distribution calibrated so that a VM on
// a dedicated CPU reproduces the Table 4 percentiles (99.9th-percentile
// processing time ~= 55 us before scheduler effects); the SLO (500 us at the
// 99.9th percentile) doubles as the RTA's period/deadline. Latency is
// measured NIC-to-NIC style: from guest-side arrival to response completion,
// excluding the client network round trip, exactly as the paper measures.

#ifndef SRC_WORKLOADS_MEMCACHED_H_
#define SRC_WORKLOADS_MEMCACHED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/guest/guest_os.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct MemcachedConfig {
  double qps = 100.0;
  double interarrival_sigma_frac = 0.3;  // Sigma as a fraction of the mean gap.
  // Per-request service time: LogNormal(median, sigma), clipped below.
  TimeNs service_median = Us(48);
  double service_sigma = 0.035;
  TimeNs service_min = Us(40);
  TimeNs service_max = Us(90);  // Rare slow path (hash collisions, TCP slow path).
  // SLO / RTA period: complete requests within this deadline.
  TimeNs slo = Us(500);
  // RTA slice (the per-framework reservation; Table 4 derivation).
  TimeNs slice = Us(58);

  // Open-loop trace-driven arrivals (SLO-controller evaluation). When
  // enabled, the client issues Poisson arrivals whose instantaneous rate is
  // qps scaled by a diurnal sinusoid and any flash-crowd phase covering the
  // current time — requests keep arriving at the traced rate regardless of
  // how far the server has fallen behind, so an under-reserved tenant
  // builds a real queue instead of silently back-pressuring the client.
  // Default off: the classic closed-ish NormalAtLeast arrival stream (and
  // every existing bench output) is untouched.
  struct OpenLoop {
    bool enabled = false;
    // Rate multiplier swings between (1 - amplitude) and (1 + amplitude)
    // over one diurnal_period, starting at the trough.
    double diurnal_amplitude = 0.0;
    TimeNs diurnal_period = Sec(20);
    // Flash-crowd phases: rate is further multiplied by `multiplier` while
    // now is in [start, end). Overlapping phases compound.
    struct Phase {
      TimeNs start = 0;
      TimeNs end = 0;
      double multiplier = 1.0;
    };
    std::vector<Phase> phases;
  };
  OpenLoop open_loop;
};

class MemcachedServer : public EventTarget {
 public:
  MemcachedServer(GuestOs* guest, std::string name, MemcachedConfig config, Rng rng);

  // Registers the RTA and starts the Mutilate client, which sends until `stop`.
  void Start(TimeNs start, TimeNs stop);

  Task* task() const { return task_; }
  int admission_result() const { return admission_result_; }
  uint64_t requests_sent() const { return requests_sent_; }

  void OnEvent(uint32_t kind, uint64_t payload) override;

 private:
  enum EventKind : uint32_t {
    kEvRegister = 1,
    kEvClientSend = 2,
  };
  void Register();
  void ClientSend();
  TimeNs SampleService();
  // Instantaneous open-loop request rate at `now` (qps when open_loop is
  // off): base qps x diurnal sinusoid x the product of covering phases.
  double RateAt(TimeNs now) const;

  GuestOs* guest_;
  Task* task_;
  MemcachedConfig config_;
  Rng rng_;
  TimeNs stop_ = 0;
  uint64_t requests_sent_ = 0;
  int admission_result_ = kGuestErrInvalid;
};

}  // namespace rtvirt

#endif  // SRC_WORKLOADS_MEMCACHED_H_
