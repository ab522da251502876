#include "src/workloads/memcached.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rtvirt {

MemcachedServer::MemcachedServer(GuestOs* guest, std::string name, MemcachedConfig config,
                                 Rng rng)
    : guest_(guest),
      task_(guest->CreateTask(std::move(name))),
      config_(config),
      rng_(rng) {}

void MemcachedServer::Start(TimeNs start, TimeNs stop) {
  stop_ = stop;
  Simulator* sim = guest_->vm()->machine()->sim();
  if (start <= sim->Now()) {
    Register();
  } else {
    sim->At(start, this, kEvRegister);
  }
}

void MemcachedServer::OnEvent(uint32_t kind, uint64_t /*payload*/) {
  if (kind == kEvRegister) {
    Register();
  } else {
    ClientSend();
  }
}

void MemcachedServer::Register() {
  RtaParams params;
  params.slice = config_.slice;
  params.period = config_.slo;
  params.sporadic = true;
  admission_result_ = guest_->SchedSetAttr(task_, params);
  if (admission_result_ != kGuestOk) {
    return;
  }
  ClientSend();
}

TimeNs MemcachedServer::SampleService() {
  // Per-request service time: LogNormal(median, sigma), clipped to the
  // kMemcachedService* bounds.
  constexpr TimeNs kServiceMedian = Us(48);
  constexpr double kServiceSigma = 0.035;
  double s = rng_.LogNormal(static_cast<double>(kServiceMedian), kServiceSigma);
  return std::clamp(static_cast<TimeNs>(s), kMemcachedServiceMin, kMemcachedServiceMax);
}

double MemcachedServer::RateAt(TimeNs now) const {
  const MemcachedConfig::OpenLoop& ol = config_.open_loop;
  double rate = config_.qps;
  if (ol.diurnal_amplitude > 0.0 && ol.diurnal_period > 0) {
    // Starts at the trough so a run that begins "overnight" ramps into its
    // peak instead of opening on one.
    double phase = 2.0 * M_PI * static_cast<double>(now % ol.diurnal_period) /
                   static_cast<double>(ol.diurnal_period);
    rate *= 1.0 - ol.diurnal_amplitude * std::cos(phase);
  }
  for (const MemcachedConfig::OpenLoop::Phase& p : ol.phases) {
    if (now >= p.start && now < p.end) {
      rate *= p.multiplier;
    }
  }
  return rate;
}

void MemcachedServer::ClientSend() {
  Simulator* sim = guest_->vm()->machine()->sim();
  TimeNs now = sim->Now();
  if (now >= stop_) {
    return;
  }
  ++requests_sent_;
  // Request arrives at Dom0 "now" (the client network delay is outside the
  // measured NIC-to-NIC window); the job's deadline is the SLO.
  guest_->ReleaseJob(task_, SampleService(), now + config_.slo);

  TimeNs gap;
  if (config_.open_loop.enabled) {
    // Open loop: Poisson arrivals at the traced instantaneous rate, never
    // modulated by server progress. Floor of 1 ns keeps the event strictly
    // in the future even at flash-crowd peaks.
    double mean_gap = kNsPerSec / RateAt(now);
    gap = std::max<TimeNs>(1, static_cast<TimeNs>(rng_.Exponential(mean_gap)));
  } else {
    constexpr double kInterarrivalSigmaFrac = 0.3;  // Sigma as a fraction of the mean gap.
    double mean_gap = kNsPerSec / config_.qps;
    gap = static_cast<TimeNs>(rng_.NormalAtLeast(
        mean_gap, mean_gap * kInterarrivalSigmaFrac, mean_gap * 0.05));
  }
  sim->After(gap, this, kEvClientSend);
}

}  // namespace rtvirt
