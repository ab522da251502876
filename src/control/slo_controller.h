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
//   * saturation handoff — when the host rejects INC saturation_after times
//     in a row (or the slice cap is reached with the SLO still missed) the
//     tenant is marked saturated and the controller stops retrying; the
//     pressure/degradation ladder owns the overload until the tail recovers;
//   * fail-static — when the channel degrades (outage/drops starving the
//     feedback path) the controller freezes the last-good reservation and
//     probes for re-engagement with bounded exponential backoff.

#ifndef SRC_CONTROL_SLO_CONTROLLER_H_
#define SRC_CONTROL_SLO_CONTROLLER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/control/windowed_quantile.h"
#include "src/guest/guest_os.h"
#include "src/guest/task.h"
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

  // Tail quantile tracked against the SLO.
  double target_quantile = 0.999;

  // Hysteresis band, as fractions of the tenant SLO: INC when the tracked
  // quantile exceeds inc_band * slo, DEC only when it falls below
  // dec_band * slo. Between the two the controller holds.
  double inc_band = 0.9;
  double dec_band = 0.45;

  // PI controller on the normalized error (quantile - inc_band*slo) / slo.
  // The integrator only accumulates while the tail is *outside* the
  // hysteresis band (conditional integration); in-band it decays toward
  // zero, so a long healthy stretch cannot wind up a reserve of negative
  // error that would later delay the INC response to a flash crowd.
  double kp = 0.5;
  double ki = 0.2;
  // Anti-windup clamp on the integrator magnitude.
  double integrator_clamp = 2.0;

  // Demand floor: DEC never shrinks the slice below the observed work rate
  // times this headroom factor. The work rate comes from an EMA over the
  // completed jobs' execution demand (alpha per decision tick), which is
  // what prevents INC/DEC oscillation under sustained load: once the tail
  // is healthy the *measured demand*, not the (now comfortable) tail, says
  // how much of the reservation is actually load-bearing.
  double demand_headroom = 1.3;
  double demand_ema_alpha = 0.2;

  // Adjustment sizing: one step changes the slice by step_fraction of its
  // current value, but at least min_step.
  double step_fraction = 0.25;
  TimeNs min_step = Us(4);

  // Per-tenant adjustment rate limit. Defaults sit far inside the PR 4
  // guest_trust budgets (2000 calls/s token bucket, 32 INC/DEC flips per
  // 100 ms): 4 adjustments per 100 ms is two orders of magnitude below both.
  int max_adjust_per_window = 4;
  TimeNs rate_window = Ms(100);

  // Consecutive host INC rejections before the tenant is marked saturated
  // and handed off to the pressure/degradation ladder.
  int saturation_after = 3;

  // Consecutive ticks with a degraded channel (or channel-level actuation
  // failures) before entering fail-static freeze.
  int freeze_after = 2;
  // Re-engage probe backoff while frozen: initial, growth, cap.
  TimeNs reengage_backoff = Ms(100);
  double reengage_backoff_mult = 2.0;
  TimeNs reengage_backoff_max = Sec(2);

  // Minimum samples in the window before a decision is made.
  uint64_t min_samples = 32;

  // Sliding-window quantile estimator geometry (shared by all tenants).
  WindowedQuantile::Options window;
};

// Controller counters, aggregated into ResilienceCounters by the runner.
struct ControlStats {
  uint64_t samples = 0;              // Response-time samples observed.
  uint64_t decisions = 0;            // Ticks with enough samples to evaluate.
  uint64_t inc_adjustments = 0;
  uint64_t dec_adjustments = 0;
  uint64_t hysteresis_holds = 0;     // In-band: no action by design.
  uint64_t demand_floor_holds = 0;   // DEC withheld: slice is load-bearing.
  uint64_t pressure_holds = 0;       // INC withheld under host pressure.
  uint64_t ladder_holds = 0;         // Tenant shed/compressed by PR 2 ladder.
  uint64_t rate_limit_holds = 0;     // Per-window adjustment budget exhausted.
  uint64_t windup_clamps = 0;        // Integrator hit the anti-windup clamp.
  uint64_t actuation_failures = 0;   // SchedSetAttr adjustments rejected.
  uint64_t saturation_events = 0;    // Handed off to the degradation ladder.
  uint64_t saturations_resolved = 0; // Tail recovered after a handoff.
  uint64_t freezes = 0;              // Fail-static entries.
  uint64_t reengage_probes = 0;      // Probes issued while frozen.
  uint64_t reengages = 0;            // Frozen -> engaged transitions.
};

class SloController : public JobObserver, public EventTarget {
 public:
  SloController(Simulator* sim, ControlConfig config);

  struct TenantOptions {
    TimeNs slo = 0;        // Response-time SLO; 0 = the task's period.
    TimeNs min_slice = 0;  // DEC floor; 0 = the slice at Watch time.
    TimeNs max_slice = 0;  // INC ceiling; 0 = 4x the slice at Watch time.
  };

  // Starts controlling `task` (already registered with `guest`). Installs
  // itself as the task's observer, forwarding completions to whatever
  // observer was installed before (deadline monitors keep working).
  // `channel` may be null (non-RTVirt framework): the degraded-channel
  // fail-static trigger is then disabled for this tenant.
  void Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel,
             TenantOptions opts);
  void Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel) {
    Watch(guest, task, channel, TenantOptions());
  }

  // Schedules the periodic decision tick. Idempotent; called by the
  // Experiment on first Run().
  void Arm();
  bool armed() const { return armed_; }

  const ControlStats& stats() const { return stats_; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  // Introspection (tests, benches).
  TimeNs CurrentSlice(const Task* task) const;
  bool Frozen(const Task* task) const;
  bool Saturated(const Task* task) const;
  // Saturation handoffs that have not resolved yet (bench gate: must be 0
  // at the end of a run — the ladder must always dig the tenant out).
  uint64_t unresolved_saturations() const {
    return stats_.saturation_events - stats_.saturations_resolved;
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

  Simulator* sim_;
  ControlConfig config_;
  std::vector<Tenant> tenants_;
  std::unordered_map<const Task*, size_t> by_task_;
  ControlStats stats_;
  bool armed_ = false;
};

}  // namespace rtvirt

#endif  // SRC_CONTROL_SLO_CONTROLLER_H_
