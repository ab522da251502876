// Closed-loop per-tenant SLO controller (DESIGN.md §9).
//
// Watches each tenant RTA's response-time tail through a sliding-window
// quantile estimator and adjusts its reservation through the ordinary guest
// syscall surface — GuestOs::SchedSetAttr with kBwReasonSloControl — so every
// adjustment exercises guest admission, the cross-layer channel (slack
// padding, bounded retry, degraded fallback) and host-side trust accounting
// exactly like an application's own parameter change would.
//
// A feedback controller on this path is itself a failure mode, so the design
// is defensive first:
//   * hysteresis — INC above the SLO band, DEC only well below it; inside
//     the band the controller holds, so it cannot oscillate against the
//     PR 2 compress/shed ladder (and never touches a task that ladder has
//     shed or compressed);
//   * anti-windup — the PI integrator is clamped, and a tick whose action is
//     withheld (pressure, rate limit, ladder) rolls its integration back, so
//     error accumulated while the controller *cannot* act never discharges
//     as a burst of adjustments when it can;
//   * rate limiting — at most max_adjust_per_window adjustments per tenant
//     per rate window, sized well inside the PR 4 token bucket and replan
//     budget: a well-behaved controller must never be quarantined;
//   * saturation handoff — when the host rejects INC kSaturationAfter times
//     in a row (or the slice cap is reached with the SLO still missed) the
//     tenant is marked saturated and the controller stops retrying; the
//     pressure/degradation ladder owns the overload until the tail recovers;
//   * fail-static — when the channel degrades (outage/drops starving the
//     feedback path) the controller freezes the last-good reservation and
//     probes for re-engagement with bounded exponential backoff.

#ifndef SRC_CONTROL_SLO_CONTROLLER_H_
#define SRC_CONTROL_SLO_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/control/windowed_quantile.h"
#include "src/guest/guest_os.h"
#include "src/guest/task.h"
#include "src/metrics/counters.h"
#include "src/rtvirt/guest_channel.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct ControlConfig {
  // Master switch: when false the Experiment creates no controller object
  // and schedules no events (default-path reports stay byte-identical).
  bool enabled = false;

  // Decision cadence. Every tick evaluates each watched tenant in
  // registration order (deterministic).
  TimeNs decision_period = Ms(100);

  // Anti-windup clamp on the PI integrator's magnitude (the gains and the
  // hysteresis band are slo_controller.cc's constants).
  double integrator_clamp = 2.0;

  // Adjustment sizing: one step changes the slice by step_fraction of its
  // current value, but at least kMinStep (slo_controller.cc).
  double step_fraction = 0.25;

  // Per-tenant adjustment rate limit, per kRateWindow (slo_controller.cc).
  // The default, 4 adjustments per 100 ms, sits two orders of magnitude
  // inside the guest_trust budgets (2000 calls/s token bucket, 32 INC/DEC
  // flips per 100 ms).
  int max_adjust_per_window = 4;

  // Minimum samples in the window before a decision is made.
  uint64_t min_samples = 32;

  // Sliding-window quantile estimator geometry (shared by all tenants).
  WindowedQuantile::Options window;
};

class SloController : public JobObserver, public EventTarget {
 public:
  SloController(Simulator* sim, ControlConfig config);

  struct TenantOptions {
    TimeNs slo = 0;        // Response-time SLO; 0 = the task's period.
    // DEC floor, raised to the task's RtaParams::min_slice; 0 = the slice at
    // Watch time.
    TimeNs min_slice = 0;
    TimeNs max_slice = 0;  // INC ceiling; 0 = 4x the slice at Watch time.
  };

  // Starts controlling `task` (already registered with `guest`). Installs
  // itself as the task's observer, forwarding completions to whatever
  // observer was installed before (deadline monitors keep working).
  // `channel` may be null (non-RTVirt framework): the degraded-channel
  // fail-static trigger is then disabled for this tenant. Watching a task
  // twice is fatal.
  void Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel,
             TenantOptions opts);
  void Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel) {
    Watch(guest, task, channel, TenantOptions());
  }

  // Schedules the periodic decision tick. Idempotent; called by the
  // Experiment on first Run().
  void Arm();

  const ControlStats& stats() const { return stats_; }

  // Introspection (tests, benches).
  TimeNs CurrentSlice(const Task* task) const;
  bool Frozen(const Task* task) const;
  bool Saturated(const Task* task) const;
  // Saturation handoffs that have not resolved yet (bench gate: must be 0
  // at the end of a run — the ladder must always dig the tenant out).
  uint64_t unresolved_saturations() const {
    return stats_.control_saturation_events - stats_.control_saturations_resolved;
  }

  // JobObserver: records the response time and forwards downstream.
  void OnJobCompleted(const Task& task, const Job& job, TimeNs completion) override;
  // The periodic decision tick (the controller's only event).
  void OnEvent(uint32_t kind, uint64_t payload) override;

 private:
  struct Tenant {
    GuestOs* guest = nullptr;
    Task* task = nullptr;
    RtvirtGuestChannel* channel = nullptr;
    JobObserver* downstream = nullptr;
    TimeNs slo = 0;
    TimeNs min_slice = 0;
    TimeNs max_slice = 0;
    TimeNs cur_slice = 0;  // Last slice the controller believes is installed.
    WindowedQuantile window;
    double integrator = 0.0;
    // Demand-floor estimation: completed work since the last tick feeds an
    // EMA of the work rate (CPU fraction).
    uint64_t work_since_tick = 0;
    TimeNs last_tick = 0;
    double work_rate_ema = 0.0;
    // Rate limiting.
    int64_t rate_epoch = -1;
    int adjustments_in_window = 0;
    // Saturation handoff.
    bool saturated = false;
    int inc_rejections = 0;
    // Fail-static.
    bool frozen = false;
    int channel_strikes = 0;
    TimeNs reengage_at = 0;
    TimeNs cur_backoff = 0;

    explicit Tenant(const WindowedQuantile::Options& w) : window(w) {}
  };

  void Decide(Tenant& t, TimeNs now);
  // True when the tenant's pinned VCPU has a healthy (non-degraded) channel.
  bool ChannelHealthy(const Tenant& t) const;
  // Host pressure as published in the tenant VM's shared page.
  bool UnderPressure(const Tenant& t) const;
  bool RateBudgetExhausted(Tenant& t, TimeNs now);
  // Issues SchedSetAttr(new_slice) with kBwReasonSloControl; returns the
  // guest status code.
  int Actuate(Tenant& t, TimeNs new_slice);
  // Smallest slice the measured demand supports (>= opts min_slice).
  TimeNs DemandFloor(const Tenant& t) const;
  void EnterSaturation(Tenant& t);
  void ResolveSaturation(Tenant& t);
  void EnterFrozen(Tenant& t, TimeNs now);
  // Index in tenants_ of `task`'s tenant, or tenants_.size() if unwatched.
  size_t Find(const Task* task) const;

  Simulator* sim_;
  ControlConfig config_;
  std::vector<Tenant> tenants_;
  ControlStats stats_;
  bool armed_ = false;
};

}  // namespace rtvirt

#endif  // SRC_CONTROL_SLO_CONTROLLER_H_
