#include "src/control/slo_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/hv/hypercall.h"

namespace rtvirt {

SloController::SloController(Simulator* sim, ControlConfig config)
    : sim_(sim), config_(config) {
  RTVIRT_CHECK(config_.decision_period > 0, "control: non-positive decision period");
  RTVIRT_CHECK(config_.inc_band > config_.dec_band,
               "control: hysteresis bands inverted (inc %f <= dec %f)",
               config_.inc_band, config_.dec_band);
}

void SloController::Watch(GuestOs* guest, Task* task, RtvirtGuestChannel* channel,
                          TenantOptions opts) {
  RTVIRT_CHECK(task->is_rta() && task->registered(),
               "control: Watch() requires a registered RTA");
  Tenant t(config_.window);
  t.guest = guest;
  t.task = task;
  t.channel = channel;
  t.downstream = task->observer();
  t.slo = opts.slo > 0 ? opts.slo : task->params().period;
  t.min_slice = opts.min_slice > 0 ? opts.min_slice : task->params().slice;
  t.max_slice = opts.max_slice > 0 ? opts.max_slice : task->params().slice * 4;
  t.cur_slice = task->params().slice;
  RTVIRT_CHECK(t.min_slice <= t.cur_slice && t.cur_slice <= t.max_slice,
               "control: slice bounds exclude the registered slice");
  task->set_observer(this);
  by_task_[task] = tenants_.size();
  tenants_.push_back(std::move(t));
}

void SloController::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  sim_->After(config_.decision_period, this, 0);
}

void SloController::OnJobCompleted(const Task& task, const Job& job, TimeNs completion) {
  auto it = by_task_.find(&task);
  if (it != by_task_.end()) {
    Tenant& t = tenants_[it->second];
    t.window.Add(completion - job.release, completion);
    t.work_since_tick += static_cast<uint64_t>(job.work);
    ++stats_.samples;
    if (t.downstream != nullptr) {
      t.downstream->OnJobCompleted(task, job, completion);
    }
  }
}

TimeNs SloController::CurrentSlice(const Task* task) const {
  auto it = by_task_.find(task);
  return it == by_task_.end() ? 0 : tenants_[it->second].cur_slice;
}

bool SloController::Frozen(const Task* task) const {
  auto it = by_task_.find(task);
  return it != by_task_.end() && tenants_[it->second].frozen;
}

bool SloController::Saturated(const Task* task) const {
  auto it = by_task_.find(task);
  return it != by_task_.end() && tenants_[it->second].saturated;
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
  int64_t epoch = now / config_.rate_window;
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
    ++stats_.actuation_failures;
  }
  return rc;
}

TimeNs SloController::DemandFloor(const Tenant& t) const {
  double demand_slice = t.work_rate_ema * config_.demand_headroom *
                        static_cast<double>(t.task->params().period);
  return std::max(t.min_slice, static_cast<TimeNs>(demand_slice));
}

void SloController::EnterSaturation(Tenant& t) {
  if (!t.saturated) {
    t.saturated = true;
    ++stats_.saturation_events;
  }
}

void SloController::ResolveSaturation(Tenant& t) {
  if (t.saturated) {
    t.saturated = false;
    t.inc_rejections = 0;
    ++stats_.saturations_resolved;
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
  t.cur_backoff = config_.reengage_backoff;
  t.reengage_at = now + t.cur_backoff;
  t.integrator = 0.0;
  ++stats_.freezes;
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
                          : (1.0 - config_.demand_ema_alpha) * t.work_rate_ema +
                                config_.demand_ema_alpha * inst;
    t.work_since_tick = 0;
    t.last_tick = now;
  }

  if (t.frozen) {
    if (now < t.reengage_at) {
      return;
    }
    ++stats_.reengage_probes;
    if (!ChannelHealthy(t)) {
      t.cur_backoff = std::min(
          static_cast<TimeNs>(static_cast<double>(t.cur_backoff) *
                              config_.reengage_backoff_mult),
          config_.reengage_backoff_max);
      t.reengage_at = now + t.cur_backoff;
      return;
    }
    t.frozen = false;
    t.channel_strikes = 0;
    t.cur_backoff = 0;
    ++stats_.reengages;
    // Fall through: re-engaged this tick.
  }

  if (!ChannelHealthy(t)) {
    if (++t.channel_strikes >= config_.freeze_after) {
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
    ++stats_.ladder_holds;
    return;
  }

  if (t.window.count() < config_.min_samples) {
    return;
  }
  ++stats_.decisions;

  TimeNs tail = t.window.Quantile(config_.target_quantile);
  double slo = static_cast<double>(t.slo);
  double err = (static_cast<double>(tail) - config_.inc_band * slo) / slo;

  bool above_band = static_cast<double>(tail) > config_.inc_band * slo;
  bool below_band = static_cast<double>(tail) < config_.dec_band * slo;

  // Conditional integration (anti-windup part 1): the integrator only
  // accumulates while the tail is outside the hysteresis band; in-band it
  // bleeds toward zero. A long healthy stretch must not bank a clamped
  // negative reserve that later mutes the first flash-crowd INC ticks.
  // Remember the pre-tick value so a withheld action rolls integration back.
  double pre_integrator = t.integrator;
  if (above_band || below_band) {
    t.integrator += config_.ki * err;
    if (t.integrator > config_.integrator_clamp) {
      t.integrator = config_.integrator_clamp;  // Anti-windup part 2: clamp.
      ++stats_.windup_clamps;
    } else if (t.integrator < -config_.integrator_clamp) {
      t.integrator = -config_.integrator_clamp;
      ++stats_.windup_clamps;
    }
  } else {
    t.integrator *= 0.5;
  }
  double signal = config_.kp * err + t.integrator;

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
      ++stats_.pressure_holds;
      t.integrator = pre_integrator;
      return;
    }
    if (RateBudgetExhausted(t, now)) {
      ++stats_.rate_limit_holds;
      t.integrator = pre_integrator;
      return;
    }
    TimeNs step = std::max(
        config_.min_step, static_cast<TimeNs>(static_cast<double>(t.cur_slice) *
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
      ++stats_.inc_adjustments;
      t.inc_rejections = 0;
    } else if (ChannelHealthy(t)) {
      // Host-level rejection with a live channel: capacity, not connectivity.
      if (++t.inc_rejections >= config_.saturation_after) {
        EnterSaturation(t);
      }
    } else if (++t.channel_strikes >= config_.freeze_after) {
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
      ++stats_.demand_floor_holds;
      t.integrator = pre_integrator;
      return;
    }
    if (RateBudgetExhausted(t, now)) {
      ++stats_.rate_limit_holds;
      t.integrator = pre_integrator;
      return;
    }
    TimeNs step = std::max(
        config_.min_step, static_cast<TimeNs>(static_cast<double>(t.cur_slice) *
                                              config_.step_fraction));
    TimeNs new_slice = std::max(t.cur_slice - step, floor);
    int rc = Actuate(t, new_slice);
    if (rc == kGuestOk) {
      ++stats_.dec_adjustments;
    } else if (!ChannelHealthy(t) && ++t.channel_strikes >= config_.freeze_after) {
      EnterFrozen(t, now);
    }
    return;
  }

  // Inside the hysteresis band (or the PI signal disagrees with the band):
  // hold, by design.
  ++stats_.hysteresis_holds;
}

}  // namespace rtvirt
