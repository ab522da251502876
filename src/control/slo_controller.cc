#include "src/control/slo_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/hv/hypercall.h"

namespace rtvirt {
namespace {

// Tail quantile tracked against the SLO.
constexpr double kTargetQuantile = 0.999;

// Hysteresis band, as fractions of the tenant SLO: INC when the tracked
// quantile exceeds kIncBand * slo, DEC only when it falls below
// kDecBand * slo. Between the two the controller holds.
constexpr double kIncBand = 0.9;
constexpr double kDecBand = 0.45;
static_assert(kIncBand > kDecBand, "control: hysteresis bands inverted");

// PI controller on the normalized error (quantile - kIncBand*slo) / slo.
// The integrator only accumulates while the tail is *outside* the
// hysteresis band (conditional integration); in-band it decays toward
// zero, so a long healthy stretch cannot wind up a reserve of negative
// error that would later delay the INC response to a flash crowd.
constexpr double kKp = 0.5;
constexpr double kKi = 0.2;

// Demand floor: DEC never shrinks the slice below the observed work rate
// times this headroom factor. The work rate comes from an EMA over the
// completed jobs' execution demand (alpha per decision tick), which is
// what prevents INC/DEC oscillation under sustained load: once the tail
// is healthy the *measured demand*, not the (now comfortable) tail, says
// how much of the reservation is actually load-bearing.
constexpr double kDemandHeadroom = 1.3;
constexpr double kDemandEmaAlpha = 0.2;

// Smallest slice change one adjustment makes.
constexpr TimeNs kMinStep = Us(4);

// Window of the per-tenant adjustment rate limit.
constexpr TimeNs kRateWindow = Ms(100);

// Consecutive host INC rejections before the tenant is marked saturated
// and handed off to the pressure/degradation ladder.
constexpr int kSaturationAfter = 3;

// Consecutive ticks with a degraded channel (or channel-level actuation
// failures) before entering fail-static freeze.
constexpr int kFreezeAfter = 2;
// Re-engage probe backoff while frozen: initial, growth, cap.
constexpr TimeNs kReengageBackoff = Ms(100);
constexpr double kReengageBackoffMult = 2.0;
constexpr TimeNs kReengageBackoffMax = Sec(2);

}  // namespace

SloController::SloController(Simulator* sim, ControlConfig config)
    : sim_(sim), config_(config) {
  RTVIRT_CHECK(config_.decision_period > 0, "control: non-positive decision period");
}

void SloController::Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel,
                          TenantOptions opts) {
  RTVIRT_CHECK(task->is_rta() && task->registered(),
               "control: Watch() requires a registered RTA");
  RTVIRT_CHECK(Find(task) == tenants_.size(), "control: task %s is already watched",
               task->name().c_str());
  Tenant t(config_.window);
  t.guest = guest;
  t.task = task;
  t.channel = channel;
  t.downstream = task->observer();
  t.slo = opts.slo > 0 ? opts.slo : task->params().period;
  // DEC never goes below what the task itself tolerates: SchedSetAttr
  // refuses a slice under the task's min_slice.
  t.min_slice = std::max(opts.min_slice > 0 ? opts.min_slice : task->params().slice,
                         task->params().min_slice);
  t.max_slice = opts.max_slice > 0 ? opts.max_slice : task->params().slice * 4;
  t.cur_slice = task->params().slice;
  RTVIRT_CHECK(t.min_slice <= t.cur_slice && t.cur_slice <= t.max_slice,
               "control: slice bounds exclude the registered slice");
  task->set_observer(this);
  tenants_.push_back(std::move(t));
}

void SloController::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  sim_->After(config_.decision_period, this, 0);
}

size_t SloController::Find(const Task* task) const {
  return static_cast<size_t>(
      std::find_if(tenants_.begin(), tenants_.end(),
                   [task](const Tenant& t) { return t.task == task; }) -
      tenants_.begin());
}

void SloController::OnJobCompleted(const Task& task, const Job& job, TimeNs completion) {
  size_t i = Find(&task);
  if (i < tenants_.size()) {
    Tenant& t = tenants_[i];
    t.window.Add(completion - job.release, completion);
    t.work_since_tick += static_cast<uint64_t>(job.work);
    ++stats_.control_samples;
    if (t.downstream != nullptr) {
      t.downstream->OnJobCompleted(task, job, completion);
    }
  }
}

TimeNs SloController::CurrentSlice(const Task* task) const {
  size_t i = Find(task);
  return i < tenants_.size() ? tenants_[i].cur_slice : 0;
}

bool SloController::Frozen(const Task* task) const {
  size_t i = Find(task);
  return i < tenants_.size() && tenants_[i].frozen;
}

bool SloController::Saturated(const Task* task) const {
  size_t i = Find(task);
  return i < tenants_.size() && tenants_[i].saturated;
}

bool SloController::ChannelHealthy(const Tenant& t) const {
  if (t.channel == nullptr || t.task->vcpu_index() < 0) {
    return true;
  }
  return !t.channel->degraded(t.guest->vm()->vcpu(t.task->vcpu_index()));
}

bool SloController::UnderPressure(const Tenant& t) const {
  return t.guest->vm()->shared_page().pressure_level() > 0;
}

bool SloController::RateBudgetExhausted(Tenant& t, TimeNs now) {
  int64_t epoch = now / kRateWindow;
  if (epoch != t.rate_epoch) {
    t.rate_epoch = epoch;
    t.adjustments_in_window = 0;
  }
  return t.adjustments_in_window >= config_.max_adjust_per_window;
}

int SloController::Actuate(Tenant& t, TimeNs new_slice) {
  RtaParams params = t.task->params();
  params.slice = new_slice;
  int rc = t.guest->SchedSetAttr(t.task, params, kBwReasonSloControl);
  if (rc == kGuestOk) {
    t.cur_slice = new_slice;
    ++t.adjustments_in_window;
    // A fresh reservation invalidates the error history: drain the
    // integrator so it cannot immediately refire on stale tail samples
    // measured under the old reservation.
    t.integrator = 0.0;
    t.channel_strikes = 0;
  } else {
    ++stats_.control_actuation_failures;
  }
  return rc;
}

TimeNs SloController::DemandFloor(const Tenant& t) const {
  double demand_slice = t.work_rate_ema * kDemandHeadroom *
                        static_cast<double>(t.task->params().period);
  return std::max(t.min_slice, static_cast<TimeNs>(demand_slice));
}

void SloController::EnterSaturation(Tenant& t) {
  if (!t.saturated) {
    t.saturated = true;
    ++stats_.control_saturation_events;
  }
}

void SloController::ResolveSaturation(Tenant& t) {
  if (t.saturated) {
    t.saturated = false;
    t.inc_rejections = 0;
    ++stats_.control_saturations_resolved;
  }
}

void SloController::EnterFrozen(Tenant& t, TimeNs now) {
  if (t.frozen) {
    return;
  }
  // Fail-static: the last-good reservation stays installed (the host holds
  // it until a successful DEC, which the starved channel cannot deliver
  // anyway); the controller merely stops steering until a probe succeeds.
  t.frozen = true;
  t.cur_backoff = kReengageBackoff;
  t.reengage_at = now + t.cur_backoff;
  t.integrator = 0.0;
  ++stats_.control_freezes;
}

void SloController::OnEvent(uint32_t /*kind*/, uint64_t /*payload*/) {
  TimeNs now = sim_->Now();
  for (Tenant& t : tenants_) {
    Decide(t, now);
  }
  sim_->After(config_.decision_period, this, 0);
}

void SloController::Decide(Tenant& t, TimeNs now) {
  if (t.task == nullptr || !t.task->registered() || t.guest->vm()->crashed()) {
    return;
  }
  t.window.Advance(now);

  // Demand-rate EMA (CPU fraction of completed work). Updated every tick —
  // including frozen/held ones — so it decays once a flash crowd subsides
  // and the DEC floor releases the extra reservation for reclaim.
  if (now > t.last_tick) {
    double inst = static_cast<double>(t.work_since_tick) /
                  static_cast<double>(now - t.last_tick);
    t.work_rate_ema = t.last_tick == 0
                          ? inst
                          : (1.0 - kDemandEmaAlpha) * t.work_rate_ema + kDemandEmaAlpha * inst;
    t.work_since_tick = 0;
    t.last_tick = now;
  }

  if (t.frozen) {
    if (now < t.reengage_at) {
      return;
    }
    ++stats_.control_reengage_probes;
    if (!ChannelHealthy(t)) {
      t.cur_backoff = std::min(
          static_cast<TimeNs>(static_cast<double>(t.cur_backoff) * kReengageBackoffMult),
          kReengageBackoffMax);
      t.reengage_at = now + t.cur_backoff;
      return;
    }
    t.frozen = false;
    t.channel_strikes = 0;
    t.cur_backoff = 0;
    ++stats_.control_reengages;
    // Fall through: re-engaged this tick.
  }

  if (!ChannelHealthy(t)) {
    if (++t.channel_strikes >= kFreezeAfter) {
      EnterFrozen(t, now);
    }
    return;
  }
  t.channel_strikes = 0;

  // A tenant the PR 2 ladder has shed or compressed belongs to the ladder:
  // re-asserting parameters here would wipe the compression (SchedSetAttr
  // treats new parameters as a new contract) and fight the pressure
  // protocol's hysteresis with our own.
  if (t.task->shed() || t.task->compressed()) {
    ++stats_.control_ladder_holds;
    return;
  }

  if (t.window.count() < config_.min_samples) {
    return;
  }
  ++stats_.control_decisions;

  TimeNs tail = t.window.Quantile(kTargetQuantile);
  double slo = static_cast<double>(t.slo);
  double err = (static_cast<double>(tail) - kIncBand * slo) / slo;

  bool above_band = static_cast<double>(tail) > kIncBand * slo;
  bool below_band = static_cast<double>(tail) < kDecBand * slo;

  // Conditional integration (anti-windup part 1): the integrator only
  // accumulates while the tail is outside the hysteresis band; in-band it
  // bleeds toward zero. A long healthy stretch must not bank a clamped
  // negative reserve that later mutes the first flash-crowd INC ticks.
  // Remember the pre-tick value so a withheld action rolls integration back.
  double pre_integrator = t.integrator;
  if (above_band || below_band) {
    t.integrator += kKi * err;
    if (t.integrator > config_.integrator_clamp) {
      t.integrator = config_.integrator_clamp;  // Anti-windup part 2: clamp.
      ++stats_.control_windup_clamps;
    } else if (t.integrator < -config_.integrator_clamp) {
      t.integrator = -config_.integrator_clamp;
      ++stats_.control_windup_clamps;
    }
  } else {
    t.integrator *= 0.5;
  }
  double signal = kKp * err + t.integrator;

  // Back under the INC threshold means the ladder (or subsiding load) dug
  // the tenant out of any outstanding saturation handoff.
  if (t.saturated && !above_band) {
    ResolveSaturation(t);
  }

  if (above_band && signal > 0.0) {
    if (t.saturated) {
      // Handed off: the degradation ladder owns this overload. No retries.
      return;
    }
    if (UnderPressure(t)) {
      // The host is asking guests to *shrink*; raising our reservation now
      // would fight the compress/shed ladder head on.
      ++stats_.control_pressure_holds;
      t.integrator = pre_integrator;
      return;
    }
    if (RateBudgetExhausted(t, now)) {
      ++stats_.control_rate_limit_holds;
      t.integrator = pre_integrator;
      return;
    }
    TimeNs step = std::max(kMinStep, static_cast<TimeNs>(static_cast<double>(t.cur_slice) *
                                                         config_.step_fraction));
    TimeNs new_slice = std::min(t.cur_slice + step, t.max_slice);
    if (new_slice <= t.cur_slice) {
      // At the cap with the SLO still missed: more reservation cannot come
      // from this controller. Hand off.
      EnterSaturation(t);
      return;
    }
    int rc = Actuate(t, new_slice);
    if (rc == kGuestOk) {
      ++stats_.control_inc_adjustments;
      t.inc_rejections = 0;
    } else if (ChannelHealthy(t)) {
      // Host-level rejection with a live channel: capacity, not connectivity.
      if (++t.inc_rejections >= kSaturationAfter) {
        EnterSaturation(t);
      }
    } else if (++t.channel_strikes >= kFreezeAfter) {
      EnterFrozen(t, now);
    }
    return;
  }

  if (below_band && signal < 0.0) {
    // A comfortable tail is necessary but not sufficient to shrink: under
    // sustained load the tail is comfortable *because* the raised
    // reservation absorbs the demand, and handing it back would re-miss the
    // SLO next window — the classic INC/DEC limit cycle. The measured
    // demand rate floors the DEC instead.
    TimeNs floor = DemandFloor(t);
    if (t.cur_slice <= floor) {
      ++stats_.control_demand_floor_holds;
      t.integrator = pre_integrator;
      return;
    }
    if (RateBudgetExhausted(t, now)) {
      ++stats_.control_rate_limit_holds;
      t.integrator = pre_integrator;
      return;
    }
    TimeNs step = std::max(kMinStep, static_cast<TimeNs>(static_cast<double>(t.cur_slice) *
                                                         config_.step_fraction));
    TimeNs new_slice = std::max(t.cur_slice - step, floor);
    int rc = Actuate(t, new_slice);
    if (rc == kGuestOk) {
      ++stats_.control_dec_adjustments;
    } else if (!ChannelHealthy(t) && ++t.channel_strikes >= kFreezeAfter) {
      EnterFrozen(t, now);
    }
    return;
  }

  // Inside the hysteresis band (or the PI signal disagrees with the band):
  // hold, by design.
  ++stats_.control_hysteresis_holds;
}

}  // namespace rtvirt
